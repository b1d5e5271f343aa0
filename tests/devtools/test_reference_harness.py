"""The harness every golden and parity test compares through, and the one
entry point that regenerates the pinned fixtures.

A comparison that forgives a difference it should catch would let every
parity test that uses it pass on a broken engine, so each strictness
``assert_same`` promises is checked here against a known difference.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.fixtures import regenerate
from tests.reference import assert_same


class TestAssertSame:
    def test_bytes_catch_a_signed_zero_that_values_forgive(self):
        got, want = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
        with pytest.raises(AssertionError):
            assert_same(got, want)
        assert_same(got, want, by_value=True)

    def test_a_nan_matches_itself_by_bytes_and_by_value(self):
        a = np.array([np.nan, 2.0])
        assert_same(a, a.copy())
        assert_same(a, a.copy(), by_value=True)

    @pytest.mark.parametrize("got, want", [
        (np.zeros(3, np.float32), np.zeros(3, np.float64)),
        (np.zeros((1, 3)), np.zeros(3)),
        ([0.0, 0.0, 0.0], np.zeros(3)),
        ([1, 2], (1, 2)),
        ([1, 2], [1, 2, 3]),
        ({"b": 1, "a": 2}, {"a": 2, "b": 1}),
        (1.0, 1.5),
    ], ids=["dtype", "shape", "not-an-array", "list-vs-tuple", "length", "key-order", "scalar"])
    def test_each_kind_of_difference_fails(self, got, want):
        with pytest.raises(AssertionError):
            assert_same(got, want)
        with pytest.raises(AssertionError):
            assert_same(got, want, by_value=True)

    def test_the_first_difference_is_named_by_its_path(self):
        want = {"w": [np.zeros(2), np.ones(2)]}
        got = {"w": [np.zeros(2), np.array([1.0, 2.0])]}
        with pytest.raises(AssertionError, match=r"run\['w'\]\[1\]"):
            assert_same(got, want, "run")

    def test_contiguous_rejects_a_strided_view_of_equal_values(self):
        base = np.arange(6.0).reshape(2, 3)
        view = base.T
        assert_same(view, view.copy())
        with pytest.raises(AssertionError):
            assert_same(view, view.copy(), contiguous=True)

    def test_returns_what_the_engine_gave(self):
        got = {"a": np.arange(3.0)}
        assert assert_same(got, {"a": np.arange(3.0)}) is got


class TestRegenerateEntryPoint:
    def test_every_target_names_a_pinned_fixture_directory(self):
        for name in regenerate.FIXTURES:
            directory = regenerate.FIXTURE_DIR / name
            assert directory.is_dir() and any(directory.iterdir()), name

    def test_an_unknown_target_exits_2_before_running_any(self, monkeypatch):
        ran = []
        for name in regenerate.FIXTURES:
            monkeypatch.setitem(regenerate.FIXTURES, name, lambda name=name: ran.append(name))
        with pytest.raises(SystemExit) as exc:
            regenerate.main(["histories", "privacy"])
        assert exc.value.code == 2
        assert ran == []

    def test_targets_run_once_each_in_the_order_given(self, monkeypatch):
        ran = []
        for name in regenerate.FIXTURES:
            monkeypatch.setitem(regenerate.FIXTURES, name, lambda name=name: ran.append(name))
        assert regenerate.main(["deepthin", "histories"]) == 0
        assert ran == ["deepthin", "histories"]
