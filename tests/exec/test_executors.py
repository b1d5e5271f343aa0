"""``SerialExecutor.map_groups`` contract: input order, empty input,
payloads passed through untouched, reuse, and the first failure stopping
the fan-out; and no public entry point offers another backend."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

import repro.exec
from repro.exec import SerialExecutor
from repro.experiments.figures import run_fig2a, run_fig2b
from repro.experiments.runner import SCHEME_REGISTRY, make_scheme, run_schemes
from repro.experiments.sweep import ParameterSweep
from repro.metrics.multiseed import run_multiseed

#: every public entry point that once took an ``executor=`` backend
ENTRY_POINTS = {
    "run_schemes": run_schemes,
    "run_fig2a": run_fig2a,
    "run_fig2b": run_fig2b,
    "ParameterSweep.run": ParameterSweep.run,
    "run_multiseed": run_multiseed,
    **{f"{name}.__init__": cls.__init__ for name, cls in sorted(SCHEME_REGISTRY.items())},
}


def _square(x):
    return x * x


def _identity(x):
    return x


class TestMapGroups:
    def test_results_in_input_order(self):
        items = list(range(20))
        assert SerialExecutor().map_groups(_square, items) == [x * x for x in items]

    def test_empty_items(self):
        assert SerialExecutor().map_groups(_square, []) == []

    def test_numpy_payloads_round_trip(self):
        arrays = [np.full((3, 3), i, dtype=np.float32) for i in range(4)]
        out = SerialExecutor().map_groups(_identity, arrays)
        for inp, res in zip(arrays, out):
            np.testing.assert_array_equal(inp, res)
            assert res.dtype == np.float32

    def test_reusable_after_first_map(self):
        executor = SerialExecutor()
        assert executor.map_groups(_square, [2]) == [4]
        assert executor.map_groups(_square, [3]) == [9]

    def test_runs_tasks_one_after_another(self):
        """Task ``k`` starts after task ``k-1`` returned — the round engine
        relies on it to train every task on one shared model."""
        log: list[str] = []

        def task(x):
            log.append(f"start {x}")
            log.append(f"end {x}")
            return x

        SerialExecutor().map_groups(task, (0, 1, 2))
        assert log == ["start 0", "end 0", "start 1", "end 1", "start 2", "end 2"]

    def test_first_failure_propagates_and_stops(self):
        seen: list[int] = []

        def task(x):
            seen.append(x)
            if x == 1:
                raise RuntimeError("task 1 failed")
            return x

        with pytest.raises(RuntimeError, match="task 1 failed"):
            SerialExecutor().map_groups(task, [0, 1, 2])
        assert seen == [0, 1]


def test_serial_executor_is_the_only_export():
    assert repro.exec.__all__ == ["SerialExecutor"]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_takes_no_executor(name):
    """The round engine has one backend, so no caller can choose another."""
    assert "executor" not in inspect.signature(ENTRY_POINTS[name]).parameters


def test_make_scheme_rejects_an_executor(built_fast_scenario):
    with pytest.raises(TypeError):
        make_scheme("GSFL", built_fast_scenario, executor=SerialExecutor())
