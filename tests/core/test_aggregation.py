"""FedAvg aggregation tests: exactness, weighting, linearity, errors."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.core.aggregation import (
    RunningFedAvg,
    StackedFedAvg,
    fedavg,
    weighted_delta,
)
from tests.reference.aggregation import (
    frozen_gemv,
    pack_state,
    running_sum_reference,
    summation_bound,
)


def make_states(num, seed=0, shape=(3, 2)):
    rng = np.random.default_rng(seed)
    return [
        {"w": rng.normal(size=shape), "b": rng.normal(size=shape[1])} for _ in range(num)
    ]


class TestFedAvg:
    def test_single_state_identity(self):
        (state,) = make_states(1)
        avg = fedavg([state])
        np.testing.assert_allclose(avg["w"], state["w"])

    def test_uniform_average_exact(self):
        states = make_states(3)
        avg = fedavg(states)
        np.testing.assert_allclose(
            avg["w"], (states[0]["w"] + states[1]["w"] + states[2]["w"]) / 3
        )

    def test_weighted_average_exact(self):
        states = make_states(2)
        avg = fedavg(states, weights=[3.0, 1.0])
        np.testing.assert_allclose(avg["w"], 0.75 * states[0]["w"] + 0.25 * states[1]["w"])

    def test_weights_normalized(self):
        states = make_states(2)
        a = fedavg(states, weights=[3.0, 1.0])
        b = fedavg(states, weights=[300.0, 100.0])
        np.testing.assert_allclose(a["w"], b["w"])

    def test_identical_states_fixed_point(self):
        state = make_states(1)[0]
        avg = fedavg([state, state, state], weights=[1, 5, 2])
        np.testing.assert_allclose(avg["w"], state["w"])

    def test_linearity_via_pack(self):
        """fedavg commutes with flattening: pack(avg) == avg(pack)."""
        states = make_states(4, seed=7)
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        avg = fedavg(states, weights)
        packed = np.stack([pack_state(s) for s in states])
        expected = (weights / weights.sum()) @ packed
        np.testing.assert_allclose(pack_state(avg), expected)

    def test_key_mismatch_raises(self):
        a, b = make_states(2)
        b["extra"] = np.zeros(1)
        with pytest.raises(ValueError):
            fedavg([a, b])

    def test_shape_mismatch_raises(self):
        a, b = make_states(2)
        b["w"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            fedavg([a, b])

    def test_weight_validation(self):
        states = make_states(2)
        with pytest.raises(ValueError):
            fedavg(states, weights=[1.0])
        with pytest.raises(ValueError):
            fedavg(states, weights=[-1.0, 2.0])
        with pytest.raises(ValueError):
            fedavg(states, weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            fedavg([])

    @pytest.mark.parametrize(
        "weights",
        [[np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf], [np.inf, np.inf]],
        ids=["nan", "inf", "-inf", "inf+inf"],
    )
    def test_non_finite_weights_rejected(self, weights):
        """NaN and inf weights passed the sign test and returned an
        all-NaN model."""
        states = make_states(2)
        with pytest.raises(ValueError, match="finite"):
            fedavg(states, weights=weights)
        with pytest.raises(ValueError, match="finite"):
            weighted_delta(states[0], states, weights=weights)

    def test_aggregating_model_states_preserves_forward(self):
        """FedAvg of identical model states reproduces the model exactly."""
        model = nn.Sequential(nn.Linear(4, 3, seed=0), nn.ReLU(), nn.Linear(3, 2, seed=1))
        state = model.state_dict()
        model.load_state_dict(fedavg([state, state], weights=[2.0, 5.0]))
        x = np.random.default_rng(0).normal(size=(3, 4))
        from repro.nn.tensor import Tensor

        out1 = model(Tensor(x)).data
        model.load_state_dict(state)
        np.testing.assert_allclose(out1, model(Tensor(x)).data)

    @given(st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_average_within_hull(self, num):
        """Every averaged entry lies inside the participants' min/max hull."""
        states = make_states(num, seed=num)
        avg = fedavg(states)
        stack_w = np.stack([s["w"] for s in states])
        assert np.all(avg["w"] >= stack_w.min(axis=0) - 1e-12)
        assert np.all(avg["w"] <= stack_w.max(axis=0) + 1e-12)


class TestWeightedDelta:
    def test_server_lr_one_equals_fedavg(self):
        states = make_states(3, seed=2)
        base = make_states(1, seed=9)[0]
        np.testing.assert_allclose(
            weighted_delta(base, states, server_lr=1.0)["w"], fedavg(states)["w"]
        )

    def test_server_lr_zero_keeps_base(self):
        states = make_states(3, seed=2)
        base = make_states(1, seed=9)[0]
        np.testing.assert_allclose(weighted_delta(base, states, server_lr=0.0)["w"], base["w"])

    def test_interpolates(self):
        states = make_states(2, seed=4)
        base = make_states(1, seed=5)[0]
        half = weighted_delta(base, states, server_lr=0.5)
        full = fedavg(states)
        np.testing.assert_allclose(half["w"], 0.5 * base["w"] + 0.5 * full["w"])


class TestRunningSumBound:
    """The running sum and ``fedavg``'s GEMV are two orders of one sum."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num", [1, 2, 6, 30])
    def test_reference_is_within_the_stated_bound_of_the_gemv(self, dtype, num):
        rng = np.random.default_rng(1000 + num)
        states = [
            {"w": rng.normal(size=(17, 5)).astype(dtype), "b": rng.normal(size=9).astype(dtype)}
            for _ in range(num)
        ]
        weights = rng.integers(1, 500, size=num).astype(np.float64)
        ref = running_sum_reference(states, weights)
        gemv = pack_state(fedavg(states, weights))
        assert ref.dtype == gemv.dtype == dtype
        error = np.abs(ref.astype(np.float64) - gemv.astype(np.float64))
        assert np.all(error <= summation_bound(states, weights))


class TestRunningFedAvg:
    """States added one at a time to one running weighted sum."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_frozen_running_sum_bitwise(self, dtype):
        states = [
            {k: v.astype(dtype) for k, v in s.items()} for s in make_states(30, seed=3)
        ]
        weights = np.random.default_rng(5).integers(1, 500, size=30).astype(np.float64)
        running = RunningFedAvg(weights)
        for state in states:
            running.add(state)
        got = running.result()
        assert list(got) == list(states[0])
        for key in got:
            assert got[key].dtype == dtype
            assert got[key].shape == states[0][key].shape
        assert pack_state(got).tobytes() == running_sum_reference(states, weights).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_state_is_returned_exactly(self, dtype):
        (state,) = [{k: v.astype(dtype) for k, v in s.items()} for s in make_states(1)]
        running = RunningFedAvg([7.0])
        running.add(state)
        got = running.result()
        for key in state:
            assert got[key].tobytes() == state[key].tobytes()

    def test_every_state_is_checked(self):
        a, b, c = make_states(3)
        running = RunningFedAvg([1.0, 1.0, 1.0])
        running.add(a)
        with pytest.raises(ValueError, match="mismatched keys"):
            running.add({**b, "extra": np.zeros(1)})
        with pytest.raises(ValueError, match="shape mismatch"):
            running.add({"w": np.zeros((1, 1)), "b": b["b"]})
        with pytest.raises(ValueError, match="dtype mismatch"):
            running.add({"w": b["w"].astype(np.float32), "b": b["b"]})

    def test_must_be_full_and_not_overfull(self):
        a, b = make_states(2)
        running = RunningFedAvg([1.0, 2.0])
        running.add(a)
        with pytest.raises(ValueError, match="1 of 2 states added"):
            running.result()
        running.add(b)
        with pytest.raises(ValueError, match="already added"):
            running.add(a)
        with pytest.raises(ValueError, match="at least one"):
            RunningFedAvg([])

    @pytest.mark.parametrize(
        "weights",
        [[np.nan, 1.0], [np.inf, 1.0], [1.0, -1.0], [0.0, 0.0]],
        ids=["nan", "inf", "negative", "zero-sum"],
    )
    def test_weights_are_validated_once_up_front(self, weights):
        with pytest.raises(ValueError, match="weights must be"):
            RunningFedAvg(weights)


class TestStackedFedAvg:
    """States copied one at a time into the rows of one matrix, averaged
    by the GEMV ``fedavg`` always ran."""

    @staticmethod
    def _case(dtype, num, case):
        rng = np.random.default_rng(100 * num + len(case))
        states = [
            {"w": rng.normal(size=(17, 5)).astype(dtype), "b": rng.normal(size=9).astype(dtype)}
            for _ in range(num)
        ]
        weights = rng.integers(1, 500, size=num).astype(np.float64)
        if case == "zero-weights":
            weights[1::2] = 0.0
        if case == "special":
            for index, state in enumerate(states):
                state["w"][index % 17, :4] = [np.nan, np.inf, -np.inf, -0.0]
                state["b"][:] = -0.0
        return states, weights

    @pytest.mark.parametrize("case", ["plain", "zero-weights", "special"])
    @pytest.mark.parametrize("num", [1, 2, 7, 30])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_average_is_the_frozen_gemv_bitwise(self, dtype, num, case):
        states, weights = self._case(dtype, num, case)
        stacked = StackedFedAvg(num)
        for state in states:
            stacked.add(state)
        want = frozen_gemv(states, weights).tobytes()
        assert stacked.average(weights).tobytes() == want
        assert pack_state(fedavg(stacked, weights)).tobytes() == want
        got = fedavg(states, weights)
        assert list(got) == list(states[0])
        assert all(got[key].dtype == dtype for key in got)
        assert pack_state(got).tobytes() == want

    def test_a_row_is_a_copy_of_its_state(self):
        states = make_states(3)
        stacked = StackedFedAvg(3)
        for state in states:
            stacked.add(state)
            want = {key: value.copy() for key, value in state.items()}
            for value in state.values():
                value[...] = np.nan  # the caller reuses its arrays
            state.update(want)
        for index, state in enumerate(states):
            for key, value in stacked.state(index).items():
                assert value.tobytes() == state[key].tobytes()

    def test_rows_live_outside_the_traced_heap(self):
        """The matrix is an anonymous memory map: filling thirty 0.8 MB
        rows asks the heap for less than one of them."""
        states = [{"w": np.full(100_000, float(i))} for i in range(30)]
        stacked = StackedFedAvg(30)
        tracemalloc.start()
        try:
            for state in states:
                stacked.add(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000 * 8, peak
        assert pack_state(stacked.state(29)).tobytes() == states[29]["w"].tobytes()

    def test_every_state_is_checked_by_index(self):
        a, b, _ = make_states(3)
        for bad, message in [
            ({**b, "extra": np.zeros(1)}, "mismatched keys"),
            ({"w": np.zeros((1, 1)), "b": b["b"]}, "shape mismatch"),
            ({"w": b["w"].astype(np.float32), "b": b["b"]}, "dtype mismatch"),
        ]:
            stacked = StackedFedAvg(3)
            stacked.add(a)
            with pytest.raises(ValueError, match=f"state 1.*{message}"):
                stacked.add(bad)

    def test_must_be_full_and_not_overfull(self):
        a, b = make_states(2)
        stacked = StackedFedAvg(2)
        stacked.add(a)
        with pytest.raises(ValueError, match="state 1 "):
            stacked.average([1.0, 2.0])
        with pytest.raises(ValueError, match="state 1 "):
            stacked.state(0)
        stacked.add(b)
        with pytest.raises(ValueError, match="state 2: all 2 states are already added"):
            stacked.add(a)
        with pytest.raises(ValueError, match="at least one"):
            fedavg(StackedFedAvg(0))
