"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro import nn
from repro.data import gtsrb
from repro.data.dataset import ArrayDataset
from repro.experiments.scenario import fast_scenario

# Hypothesis budget profiles: "ci" keeps property sweeps cheap in the
# per-PR gate; "weekly" (selected via HYPOTHESIS_PROFILE on the scheduled
# CI job) burns far more examples hunting for rare interleavings.  Tests
# that pin max_examples inline override the profile deliberately.
settings.register_profile("ci", max_examples=25, deadline=None)
settings.register_profile("weekly", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session", autouse=True)
def _float64_substrate():
    """Pin the legacy unit-test suite to double precision.

    The suite was written against the original float64 substrate: numeric
    gradient checks need double precision, and the golden expectations
    (equivalence tolerances, trajectory comparisons) are float64 numerics.
    The float32 default and dtype switching are covered explicitly by
    ``tests/nn/test_dtype.py`` (down to a float32-vs-float64 GSFL
    trajectory) and the float32 DeepThin golden history.
    """
    previous = nn.set_default_dtype(np.float64)
    yield
    nn.set_default_dtype(previous)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def tiny_classification(rng) -> tuple[np.ndarray, np.ndarray]:
    """Linearly separable-ish 3-class problem on 10 features."""
    x = rng.normal(size=(96, 10))
    y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0).astype(int)
    return x, y


@pytest.fixture
def small_cnn() -> nn.Sequential:
    return nn.Sequential(
        nn.Conv2d(2, 3, 3, padding=1, seed=1),
        nn.ReLU(),
        nn.MaxPool2d(2),
        nn.Flatten(),
        nn.Linear(3 * 4 * 4, 5, seed=2),
    )


@pytest.fixture
def image_batch(rng) -> tuple[np.ndarray, np.ndarray]:
    return rng.normal(size=(4, 2, 8, 8)), rng.integers(0, 5, size=4)


@pytest.fixture
def small_dataset(rng) -> ArrayDataset:
    images = rng.normal(size=(40, 2, 8, 8))
    labels = rng.integers(0, 5, size=40)
    return ArrayDataset(images, labels)


@pytest.fixture(scope="session")
def built_fast_scenario():
    """A built fast scenario shared across integration tests (read-only)."""
    return fast_scenario(with_wireless=True).build()


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` wrt array ``x`` (in place)."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * eps)
    return grad


def render_sign(
    label: int,
    size: int,
    rng: np.random.Generator,
    noise_std: float = 0.08,
    jitter: float = 0.25,
    max_shift: int = 2,
    blur_prob: float = 0.3,
    occlusion_prob: float = 0.15,
) -> np.ndarray:
    """One augmented sample of class ``label``: the ``n = 1`` call of the
    class renderer every split is built by, a float64 RGB image of shape
    ``(3, size, size)`` in [0, 1]."""
    out = np.empty((1, 3, size, size))
    work = np.empty((2, 1, 3, size, size))
    gtsrb._render_class(
        label, out, work, rng, noise_std, jitter, max_shift, blur_prob, occlusion_prob
    )
    return out[0]
