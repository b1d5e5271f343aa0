"""Same seed, same run: the round engines are bitwise reproducible.

The round engines draw every shared RNG (channel fading, failure
injection) in the scheme and give each task only its members' private
loaders, drawn at the step that trains on the batch.  So *for a fixed
seed the full training history — accuracies, train losses and the priced
latency axis — is bitwise identical from one run to the next, and every
client loader ends in the same generator state*; and each round moves
every participating loader on, so no round replays the previous round's
batches.  Checked on the fast scenario with real wireless pricing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.nn.dtype import default_dtype

PARALLEL_SCHEMES = ["GSFL", "SplitFed", "PSL"]


def _run(scheme: str, dtype=np.float32, rounds: int = 2, **overrides):
    """Fresh scenario + scheme, trained for ``rounds`` in ``dtype``."""
    with default_dtype(dtype):
        built = fast_scenario(with_wireless=True).build()
        scheme_obj = make_scheme(scheme, built, **overrides)
        scheme_obj.run(rounds)
    return scheme_obj


def _loader_states(scheme_obj):
    return [loader._rng.bit_generator.state for loader in scheme_obj.client_loaders]


def _assert_identical(a, b):
    """Same history, bitwise, and every client loader in the same state."""
    ha, hb = a.history, b.history
    np.testing.assert_array_equal(ha.accuracies, hb.accuracies)
    np.testing.assert_array_equal(ha.latencies, hb.latencies)
    np.testing.assert_array_equal(
        [p.train_loss for p in ha.points], [p.train_loss for p in hb.points]
    )
    assert _loader_states(a) == _loader_states(b)


class TestSameSeedSameRun:
    @pytest.mark.parametrize("scheme", PARALLEL_SCHEMES)
    def test_rerun_is_bitwise_identical(self, scheme):
        _assert_identical(_run(scheme), _run(scheme))

    @pytest.mark.parametrize("scheme", ["GSFL", "SplitFed"])
    def test_rerun_is_bitwise_identical_in_float64(self, scheme):
        _assert_identical(_run(scheme, dtype=np.float64), _run(scheme, dtype=np.float64))

    def test_gsfl_six_groups_with_failures(self):
        """M=6 groups + failure injection: the failure draws come from the
        scheme's own stream, so the dropped clients repeat too."""
        kwargs = dict(num_groups=6, failure_rate=0.3)
        _assert_identical(_run("GSFL", **kwargs), _run("GSFL", **kwargs))

    def test_three_rounds_fill_three_points(self):
        assert len(_run("GSFL", rounds=3).history) == 3


class TestLoadersAdvance:
    @pytest.mark.parametrize("scheme", PARALLEL_SCHEMES)
    def test_every_round_moves_every_loader_on(self, scheme):
        one, two = _run(scheme, rounds=1), _run(scheme, rounds=2)
        fresh = _loader_states(make_scheme(scheme, fast_scenario(with_wireless=True).build()))
        for start, after_one, after_two in zip(
            fresh, _loader_states(one), _loader_states(two)
        ):
            assert after_one != start
            assert after_two != after_one
