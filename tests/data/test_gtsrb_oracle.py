"""The synthetic dataset, byte for byte, against the per-sample generator
it replaced.

``SyntheticGTSRB._generate`` renders one class at a time as array
expressions; the generator it had before — one ``render_sign`` call per
sample, a nine-pass ``_box_blur`` per blurred image, a Python list and
``np.stack`` — is frozen as the oracle in ``tests/reference/data.py``.
Images, labels, sample order and the generator state left behind must be
identical (the test split is drawn from where the train split stopped,
and a caller's generator must come back where it always did), so every
golden history, fixture and benchmark digest downstream sees the dataset
it always saw.  The oracle shares ``class_spec`` and the two mask functions
with ``src`` (they did not change); two sha256 pins taken at the commit
that still ran the per-sample generator guard the oracle itself.

The split is stored in the compute dtype in force when it is built.
Under float64 (this suite's default) that is the oracle's bytes; under
float32 it is the oracle's images cast to float32 — the values every
batch was cast to on entering the graph before the store followed the
dtype — with labels, order and generator state unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.cli import main
from repro.data.gtsrb import NUM_CLASSES, GtsrbConfig, SyntheticGTSRB
from repro.experiments.scenario import fast_scenario, paper_scenario
from repro.utils.rng import new_rng
from tests.conftest import render_sign
from tests.reference import assert_same
from tests.reference.data import oracle_render_sign, oracle_train_test

# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


NAMES = ("train x", "train y", "test x", "test y")


def generated(cfg: GtsrbConfig) -> dict:
    """``train_test()``'s four arrays and the state its generator ends in."""
    made: list[np.random.Generator] = []

    def recording_rng(seed: int) -> np.random.Generator:
        made.append(new_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.data.gtsrb.new_rng", recording_rng)
        train, test = SyntheticGTSRB(cfg).train_test()
    (rng,) = made
    arrays = (train.images, train.labels, test.images, test.labels)
    return {**dict(zip(NAMES, arrays)), "state": rng.bit_generator.state}


def oracle_dataset(cfg: GtsrbConfig, dtype: type = np.float64) -> dict:
    """The oracle's arrays, its images cast to ``dtype``, and its state."""
    arrays, state = oracle_train_test(cfg)
    arrays[0], arrays[2] = arrays[0].astype(dtype), arrays[2].astype(dtype)
    return {**dict(zip(NAMES, arrays)), "state": state}


def assert_dataset_is_the_oracle(cfg: GtsrbConfig, dtype: type = np.float64) -> None:
    """``train_test()`` built under compute dtype ``dtype`` is the oracle,
    its images cast to ``dtype``: every byte, C-contiguous, and the
    generator left in the same state."""
    with nn.default_dtype(dtype):
        got = generated(cfg)
    assert_same(got, oracle_dataset(cfg, dtype), str(cfg), contiguous=True)


def workload_configs(seed: int) -> dict[str, GtsrbConfig]:
    """The dataset each ``BENCHMARK.json`` workload builds (``paper-fig2a``
    builds ``paper-gsfl``'s: both are the paper preset)."""
    fast = fast_scenario(seed=seed).dataset
    return {
        "paper-gsfl": paper_scenario(seed=seed).dataset,
        "fleet-contended": replace(fast, image_size=8, train_per_class=48, test_per_class=2),
        "churn-async-trace": fast_scenario(num_clients=12, num_groups=4, seed=seed).dataset,
    }


SMALL = dict(num_classes=7, train_per_class=5, test_per_class=2)

VARIANTS = {
    "default": GtsrbConfig(),
    "imbalance=5": GtsrbConfig(imbalance=5.0, train_per_class=12, test_per_class=4),
    "noise_std=0": GtsrbConfig(noise_std=0.0, **SMALL),
    "noise_std=0,blur=1,occlusion=1": GtsrbConfig(
        noise_std=0.0, blur_prob=1.0, occlusion_prob=1.0, **SMALL
    ),
    "blur_prob=0": GtsrbConfig(blur_prob=0.0, **SMALL),
    "blur_prob=1": GtsrbConfig(blur_prob=1.0, **SMALL),
    "occlusion_prob=0": GtsrbConfig(occlusion_prob=0.0, **SMALL),
    "occlusion_prob=1": GtsrbConfig(occlusion_prob=1.0, **SMALL),
    "max_shift=0": GtsrbConfig(max_shift=0, **SMALL),
    "jitter=0": GtsrbConfig(jitter=0.0, **SMALL),
    "num_classes=1": GtsrbConfig(num_classes=1, train_per_class=9, test_per_class=3),
    "one sample per class": GtsrbConfig(train_per_class=1, test_per_class=1),
    **{
        f"image_size={size}": GtsrbConfig(image_size=size, occlusion_prob=0.5, **SMALL)
        for size in (1, 4, 8, 16, 20)
    },
}


class TestDatasetEqualsOracle:
    @pytest.mark.parametrize("seed", [0, 23])
    @pytest.mark.parametrize(
        "workload", ["paper-gsfl", "fleet-contended", "churn-async-trace"]
    )
    def test_workload_datasets(self, workload, seed):
        assert_dataset_is_the_oracle(workload_configs(seed)[workload])

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_config_variants(self, name):
        assert_dataset_is_the_oracle(VARIANTS[name])

    @given(
        num_classes=st.integers(1, NUM_CLASSES),
        image_size=st.integers(1, 24),
        train_per_class=st.integers(1, 4),
        test_per_class=st.integers(1, 2),
        noise_std=st.sampled_from([0.0, 0.05, 0.3]),
        jitter=st.sampled_from([0.0, 0.25, 1.0]),
        max_shift=st.integers(0, 4),
        blur_prob=st.sampled_from([0.0, 0.3, 1.0]),
        occlusion_prob=st.sampled_from([0.0, 0.3, 1.0]),
        imbalance=st.sampled_from([1.0, 3.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_config(self, **fields):
        assert_dataset_is_the_oracle(GtsrbConfig(**fields))


class TestStoredInTheComputeDtype:
    """The float32 store holds exactly what a float32 run trained on."""

    @pytest.mark.parametrize("seed", [0, 23])
    @pytest.mark.parametrize(
        "workload", ["paper-gsfl", "fleet-contended", "churn-async-trace"]
    )
    def test_workload_datasets_in_float32(self, workload, seed):
        assert_dataset_is_the_oracle(workload_configs(seed)[workload], np.float32)

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_config_variants_in_float32(self, name):
        assert_dataset_is_the_oracle(VARIANTS[name], np.float32)

    def test_dtype_is_fixed_at_build_time(self):
        cfg = GtsrbConfig(**SMALL)
        with nn.default_dtype(np.float32):
            train, test = SyntheticGTSRB(cfg).train_test()
        assert nn.get_default_dtype() == np.float64
        assert train.images.dtype == test.images.dtype == np.float32
        assert train.labels.dtype == test.labels.dtype == np.int64

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_cli_builds_datasets_in_its_dtype(self, dtype, monkeypatch, capsys):
        built = []
        train_test = SyntheticGTSRB.train_test

        def recording(self):
            built.append((self.config, train_test(self)))
            return built[-1][1]

        monkeypatch.setattr(SyntheticGTSRB, "train_test", recording)
        assert main(["info", "--scale", "fast", "--dtype", dtype]) == 0
        capsys.readouterr()
        ((cfg, (train, test)),) = built
        want, _ = oracle_train_test(cfg)
        for got, oracle in ((train.images, want[0]), (test.images, want[2])):
            assert got.dtype == np.dtype(dtype)
            assert got.tobytes() == oracle.astype(dtype).tobytes()


class TestRenderSignEqualsOracle:
    """``render_sign`` is the ``n = 1`` call of the class renderer."""

    @pytest.mark.parametrize("label", range(NUM_CLASSES))
    def test_every_label(self, label):
        kwargs = dict(noise_std=0.22, jitter=0.45, blur_prob=0.5, occlusion_prob=0.35)
        for seed in range(4):  # blurred or not, occluded or not
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = render_sign(label, 20, rng, **kwargs)
            want = oracle_render_sign(label, 20, oracle_rng, **kwargs)
            assert got.dtype == want.dtype and got.shape == want.shape == (3, 20, 20)
            assert got.tobytes() == want.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_defaults_and_consecutive_calls_share_one_stream(self):
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        for label in (0, 11, 42):
            got = render_sign(label, 16, rng)
            assert got.tobytes() == oracle_render_sign(label, 16, oracle_rng).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestOracleIsTheParent:
    """sha256 of train x | train y | test x | test y, taken at the commit
    whose generator is frozen in ``tests/reference/data.py`` — an edit to the oracle (or to the
    mask functions it shares with ``src``) cannot pass unnoticed."""

    PINS = {
        "paper0": "cefdd1e7a44b0c8794c43db1f1c9229ffd441df80f71f824904d3043c0e99803",
        "fast23": "85f0161cf83eef0fa8cac64f98d6418ddf9f90d0491ad1755fc0cfc3f7c36f85",
    }

    @pytest.mark.parametrize("name", list(PINS))
    def test_pinned_digest(self, name):
        cfg = {
            "paper0": paper_scenario(seed=0).dataset,
            "fast23": fast_scenario(seed=23).dataset,
        }[name]
        arrays, _ = oracle_train_test(cfg)
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert digest == self.PINS[name]
