"""Partitioning tests: exact coverage, balance, skew properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import ArrayDataset
from repro.data.partition import (
    make_client_datasets,
    partition_dirichlet,
    partition_iid,
)


def assert_exact_partition(parts, n):
    flat = np.sort(np.concatenate(parts))
    np.testing.assert_array_equal(flat, np.arange(n))


class TestIid:
    def test_exact_partition(self):
        assert_exact_partition(partition_iid(100, 7, seed=0), 100)

    def test_balanced_sizes(self):
        parts = partition_iid(100, 7, seed=0)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        a = partition_iid(50, 5, seed=3)
        b = partition_iid(50, 5, seed=3)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_iid(3, 5)
        with pytest.raises(ValueError):
            partition_iid(5, 0)

    @given(st.integers(10, 200), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, n, k):
        if n < k:
            return
        assert_exact_partition(partition_iid(n, k, seed=n * k), n)


class TestDirichlet:
    def _labels(self, n=200, classes=5, seed=0):
        return np.random.default_rng(seed).integers(0, classes, size=n)

    def test_exact_partition(self):
        labels = self._labels()
        assert_exact_partition(partition_dirichlet(labels, 8, seed=0), len(labels))

    def test_small_alpha_skews_labels(self):
        labels = self._labels(n=2000, classes=10)
        skewed = partition_dirichlet(labels, 10, alpha=0.05, seed=0)
        uniform = partition_dirichlet(labels, 10, alpha=100.0, seed=0)

        def mean_entropy(parts):
            hist = np.stack([np.bincount(labels[idx], minlength=10) for idx in parts])
            p = hist / np.maximum(hist.sum(axis=1, keepdims=True), 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                ent = -np.nansum(np.where(p > 0, p * np.log(p), 0.0), axis=1)
            return ent.mean()

        assert mean_entropy(skewed) < mean_entropy(uniform)

    def test_min_per_client_enforced(self):
        labels = self._labels(n=100)
        parts = partition_dirichlet(labels, 5, alpha=0.5, seed=1, min_per_client=3)
        assert min(len(p) for p in parts) >= 3

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            partition_dirichlet(self._labels(), 4, alpha=0.0)


class TestHelpers:
    def test_make_client_datasets(self):
        ds = ArrayDataset(np.arange(12).reshape(12, 1).astype(float), np.arange(12) % 3)
        parts = partition_iid(12, 3, seed=0)
        subsets = make_client_datasets(ds, parts)
        assert len(subsets) == 3
        assert sum(len(s) for s in subsets) == 12

