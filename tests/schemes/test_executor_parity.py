"""Executor-parity and dtype-trajectory tests for the round engines.

The round engines draw every shared RNG (channel fading, failure
injection) in the parent thread and ship tasks whose only randomness is
each member's private loader — drawn at the step on the serial and
thread backends, in the parent before shipping on the process backend —
so *for a fixed seed the full training history — accuracies, train
losses, and the priced latency axis — must be bitwise identical across
serial / thread / process backends, and every client loader must end in
the same generator state*.  These tests assert exactly that, on the fast
scenario with real wireless pricing enabled.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.exec import make_executor
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.nn.dtype import default_dtype

PARALLEL_SCHEMES = ["GSFL", "SplitFed", "PSL"]


def _run(scheme: str, kind: str, dtype=np.float32, rounds: int = 2, **overrides):
    """Fresh scenario + scheme run on the given backend and dtype."""
    with default_dtype(dtype):
        built = fast_scenario(with_wireless=True).build()
        with make_executor(kind, None if kind == "serial" else 2) as ex:
            scheme_obj = make_scheme(scheme, built, executor=ex, **overrides)
            scheme_obj.run(rounds)
    return scheme_obj


def _history(scheme: str, kind: str, dtype=np.float32, rounds: int = 2, **overrides):
    return _run(scheme, kind, dtype, rounds, **overrides).history


def _assert_identical(a, b):
    """Same history, bitwise, and every client loader in the same state.

    The loader fence: a process worker that sampled its own batches would
    advance a pickled copy of each loader and leave the parent's behind,
    so the next round would replay the previous round's batches.
    """
    ha, hb = a.history, b.history
    np.testing.assert_array_equal(ha.accuracies, hb.accuracies)
    np.testing.assert_array_equal(ha.latencies, hb.latencies)
    np.testing.assert_array_equal(
        [p.train_loss for p in ha.points], [p.train_loss for p in hb.points]
    )
    assert [loader._rng.bit_generator.state for loader in a.client_loaders] == [
        loader._rng.bit_generator.state for loader in b.client_loaders
    ]


class TestExecutorParity:
    @pytest.mark.parametrize("scheme", PARALLEL_SCHEMES)
    def test_thread_matches_serial_bitwise(self, scheme):
        _assert_identical(_run(scheme, "serial"), _run(scheme, "thread"))

    @pytest.mark.parametrize("scheme", ["GSFL", "SplitFed"])
    def test_process_matches_serial_bitwise(self, scheme):
        _assert_identical(_run(scheme, "serial"), _run(scheme, "process"))

    @pytest.mark.parametrize("scheme", ["GSFL", "SplitFed"])
    def test_process_parity_in_float64(self, scheme):
        """The parent's dtype is re-applied inside process workers."""
        _assert_identical(
            _run(scheme, "serial", dtype=np.float64),
            _run(scheme, "process", dtype=np.float64),
        )

    def test_gsfl_six_groups_parity_with_failures(self):
        """M=6 singleton-ish groups + failure injection: the failure draws
        happen in the parent, so dropped clients are identical too."""
        kwargs = dict(num_groups=6, failure_rate=0.3)
        _assert_identical(
            _run("GSFL", "serial", **kwargs),
            _run("GSFL", "thread", **kwargs),
        )

    def test_executor_reused_across_rounds(self):
        """One pool instance must survive multi-round training."""
        h = _history("GSFL", "thread", rounds=3)
        assert len(h) == 3


class TestDtypeTrajectory:
    def test_float32_close_to_float64_trajectory(self):
        """float32 training follows the float64 trajectory closely on the
        fast scenario's horizon.

        Tolerances: per-round mean train loss within atol=5e-3 (single
        rounding step is ~1e-7; a few hundred SGD updates amplify it but
        stay well under learning-signal scale), accuracy within one
        test-set sample step (1/60 ≈ 0.017 per sample; allow 2 samples).
        """
        h32 = _history("GSFL", "serial", dtype=np.float32, rounds=3)
        h64 = _history("GSFL", "serial", dtype=np.float64, rounds=3)
        np.testing.assert_allclose(
            [p.train_loss for p in h32.points],
            [p.train_loss for p in h64.points],
            atol=5e-3,
        )
        np.testing.assert_allclose(
            h32.accuracies, h64.accuracies, atol=2 / 60 + 1e-12
        )

    def test_float64_is_default_pinned_suite_dtype(self):
        """Sanity: the legacy suite runs under the float64 pin, so models
        built without an explicit dtype context are float64 here."""
        model = nn.Sequential(nn.Linear(3, 2, seed=0))
        assert next(model.parameters()).dtype == np.float64
