"""Configurable-dtype substrate tests.

These run under the suite-wide float64 pin (see ``tests/conftest.py``)
and switch dtypes explicitly, so both directions of the knob are covered.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.aggregation import fedavg, weighted_delta
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.nn.dtype import default_dtype, get_default_dtype, set_default_dtype
from repro.nn.tensor import Tensor


class TestDtypeApi:
    def test_set_and_restore(self):
        previous = set_default_dtype(np.float32)
        try:
            assert get_default_dtype() == np.float32
        finally:
            set_default_dtype(previous)
        assert get_default_dtype() == previous

    def test_context_manager_restores(self):
        before = get_default_dtype()
        with default_dtype(np.float32):
            assert get_default_dtype() == np.float32
        assert get_default_dtype() == before

    def test_context_manager_restores_on_error(self):
        before = get_default_dtype()
        with pytest.raises(RuntimeError):
            with default_dtype(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() == before

    def test_accepts_strings(self):
        with default_dtype("float32"):
            assert get_default_dtype() == np.float32

    @pytest.mark.parametrize("bad", [np.int32, np.float16, "int64", bool])
    def test_rejects_non_compute_dtypes(self, bad):
        with pytest.raises(ValueError):
            set_default_dtype(bad)


class TestAllocation:
    def test_parameter_and_buffer_follow_default(self):
        with default_dtype(np.float32):
            model = nn.Sequential(
                nn.Conv2d(2, 3, 3, padding=1, seed=0),
                nn.BatchNorm2d(3),
                nn.ReLU(),
                nn.Flatten(),
                nn.Linear(3 * 8 * 8, 5, seed=1),
            )
        for _, param in model.named_parameters():
            assert param.dtype == np.float32
        for _, buf in model.named_buffers():
            assert buf.dtype == np.float32

    def test_tensor_creation_casts_floats_only(self):
        with default_dtype(np.float32):
            assert Tensor(np.zeros(3, dtype=np.float64)).dtype == np.float32
            assert Tensor(np.zeros(3, dtype=np.int64)).dtype == np.int64
            assert Tensor(np.zeros(3, dtype=bool)).dtype == np.bool_

    def test_allocation_dtype_sticks_after_default_changes(self):
        with default_dtype(np.float32):
            model = nn.Sequential(nn.Linear(4, 2, seed=0))
        # Back under float64 default: the model stays float32 ...
        state64 = {k: v.astype(np.float64) for k, v in model.state_dict().items()}
        model.load_state_dict(state64)
        assert next(model.parameters()).dtype == np.float32

    def test_init_streams_identical_across_dtypes(self):
        """Weight init draws in the generator's native float64 and then
        casts, so float32 weights are exactly the rounded float64 ones."""
        with default_dtype(np.float64):
            w64 = nn.Sequential(nn.Linear(6, 4, seed=3)).state_dict()
        with default_dtype(np.float32):
            w32 = nn.Sequential(nn.Linear(6, 4, seed=3)).state_dict()
        np.testing.assert_array_equal(w64["0.weight"].astype(np.float32), w32["0.weight"])


class TestTrainingDtype:
    def _step(self, dtype):
        with default_dtype(dtype):
            model = nn.Sequential(nn.Flatten(), nn.Linear(8, 4, seed=0))
            opt = nn.SGD(model.parameters(), lr=0.1)
            rng = np.random.default_rng(0)
            x, y = rng.normal(size=(4, 8)), rng.integers(0, 4, size=4)
            for _ in range(3):
                opt.zero_grad()
                loss = nn.CrossEntropyLoss()(model(Tensor(x)), y)
                loss.backward()
                opt.step()
            return model, opt, float(loss.item())

    def test_float32_stays_float32_through_training(self):
        model, opt, loss = self._step(np.float32)
        assert all(param.dtype == np.float32 for param in opt.params)
        assert np.isfinite(loss)

    def test_float32_tracks_float64_loss(self):
        _, _, loss32 = self._step(np.float32)
        _, _, loss64 = self._step(np.float64)
        assert loss32 == pytest.approx(loss64, abs=1e-4)


class TestAggregationDtype:
    def test_fedavg_preserves_float32(self):
        with default_dtype(np.float32):
            states = [
                nn.Sequential(nn.Linear(5, 3, seed=s)).state_dict() for s in range(3)
            ]
        avg = fedavg(states, weights=[1.0, 2.0, 3.0])
        assert all(v.dtype == np.float32 for v in avg.values())

    def test_weighted_delta_preserves_float32(self):
        with default_dtype(np.float32):
            base = nn.Sequential(nn.Linear(5, 3, seed=9)).state_dict()
            states = [
                nn.Sequential(nn.Linear(5, 3, seed=s)).state_dict() for s in range(2)
            ]
        out = weighted_delta(base, states, server_lr=0.5)
        assert all(v.dtype == np.float32 for v in out.values())

    def test_fedavg_float32_matches_float64_values(self):
        rng = np.random.default_rng(0)
        states64 = [
            {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)} for _ in range(3)
        ]
        states32 = [
            {k: v.astype(np.float32) for k, v in s.items()} for s in states64
        ]
        avg64 = fedavg(states64, weights=[1, 2, 3])
        avg32 = fedavg(states32, weights=[1, 2, 3])
        for key in avg64:
            np.testing.assert_allclose(avg32[key], avg64[key], atol=1e-6)


def _gsfl_history(dtype, rounds: int):
    """Fresh fast scenario (wireless priced) + GSFL run under ``dtype``."""
    with default_dtype(dtype):
        scheme = make_scheme("GSFL", fast_scenario(with_wireless=True).build())
        scheme.run(rounds)
    return scheme.history


class TestDtypeTrajectory:
    def test_float32_close_to_float64_trajectory(self):
        """float32 training follows the float64 trajectory closely on the
        fast scenario's horizon.

        Tolerances: per-round mean train loss within atol=5e-3 (single
        rounding step is ~1e-7; a few hundred SGD updates amplify it but
        stay well under learning-signal scale), accuracy within one
        test-set sample step (1/60 ≈ 0.017 per sample; allow 2 samples).
        """
        h32 = _gsfl_history(np.float32, rounds=3)
        h64 = _gsfl_history(np.float64, rounds=3)
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
