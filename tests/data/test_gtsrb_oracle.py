"""The synthetic dataset, byte for byte, against the per-sample generator
it replaced.

``SyntheticGTSRB._generate`` renders one class at a time as array
expressions; this file keeps the generator it had before — one
``render_sign`` call per sample, a nine-pass ``_box_blur`` per blurred
image, a Python list and ``np.stack`` — frozen below as the oracle (the
repo's frozen-reference pattern: see ``tests/nn/test_kernel_parity.py``).
Images, labels, sample order and the generator state left behind must be
identical (the test split is drawn from where the train split stopped,
and a caller's generator must come back where it always did), so every
golden history, fixture and benchmark digest downstream sees the dataset
it always saw.  The oracle shares ``class_spec`` and the two mask functions
with ``src`` (they did not change); two sha256 pins taken at the commit
that still ran the per-sample generator guard the oracle itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.gtsrb import (
    _COLORS,
    NUM_CLASSES,
    GtsrbConfig,
    SyntheticGTSRB,
    _glyph_mask,
    _shape_mask,
    class_spec,
    render_sign,
)
from repro.experiments.scenario import fast_scenario, paper_scenario
from repro.utils.rng import new_rng

# ----------------------------------------------------------------------
# The frozen per-sample generator (verbatim from the parent commit).
# ----------------------------------------------------------------------


def oracle_render_sign(
    label: int,
    size: int,
    rng: np.random.Generator,
    noise_std: float = 0.08,
    jitter: float = 0.25,
    max_shift: int = 2,
    blur_prob: float = 0.3,
    occlusion_prob: float = 0.15,
) -> np.ndarray:
    spec = class_spec(label)
    # Random sub-pixel centre shift implemented as coordinate offset.
    dy = rng.integers(-max_shift, max_shift + 1) * (2.0 / size)
    dx = rng.integers(-max_shift, max_shift + 1) * (2.0 / size)
    coords = np.linspace(-1.0, 1.0, size)
    yy, xx = np.meshgrid(coords + dy, coords + dx, indexing="ij")

    sign = _shape_mask(spec.shape, yy, xx)
    glyph = _glyph_mask(spec.glyph, spec.glyph_scale, yy, xx) & sign
    rim = sign & ~_shape_mask(spec.shape, yy * 1.35, xx * 1.35)

    img = np.empty((3, size, size))
    background = 0.25 + 0.2 * rng.random(3)
    face = np.array(_COLORS["white"]) if spec.color != "white" else np.array(
        (0.75, 0.75, 0.75)
    )
    rim_color = np.array(_COLORS[spec.color])
    glyph_color = np.array((0.05, 0.05, 0.05))
    for c in range(3):
        img[c] = background[c]
        img[c][sign] = face[c]
        img[c][rim] = rim_color[c]
        img[c][glyph] = glyph_color[c]

    # Photometric jitter: brightness offset + contrast scale.
    brightness = 1.0 + jitter * (rng.random() - 0.5) * 2.0
    offset = jitter * 0.3 * (rng.random() - 0.5) * 2.0
    img = img * brightness + offset

    if noise_std > 0:
        img = img + rng.normal(0.0, noise_std, size=img.shape)

    if rng.random() < blur_prob:
        img = oracle_box_blur(img)

    if rng.random() < occlusion_prob:
        oh = rng.integers(size // 6, size // 3 + 1)
        ow = rng.integers(size // 6, size // 3 + 1)
        oy = rng.integers(0, size - oh + 1)
        ox = rng.integers(0, size - ow + 1)
        img[:, oy : oy + oh, ox : ox + ow] = rng.random()

    return np.clip(img, 0.0, 1.0)


def oracle_box_blur(img: np.ndarray) -> np.ndarray:
    out = np.zeros_like(img)
    count = np.zeros_like(img)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            src_y = slice(max(0, -dy), img.shape[1] - max(0, dy))
            src_x = slice(max(0, -dx), img.shape[2] - max(0, dx))
            dst_y = slice(max(0, dy), img.shape[1] - max(0, -dy))
            dst_x = slice(max(0, dx), img.shape[2] - max(0, -dx))
            out[:, dst_y, dst_x] += img[:, src_y, src_x]
            count[:, dst_y, dst_x] += 1.0
    return out / count


def oracle_generate(
    cfg: GtsrbConfig, per_class: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    counts = cfg.class_counts(per_class)
    images: list[np.ndarray] = []
    labels: list[int] = []
    for label in range(cfg.num_classes):
        for _ in range(int(counts[label])):
            images.append(
                oracle_render_sign(
                    label,
                    cfg.image_size,
                    rng,
                    noise_std=cfg.noise_std,
                    jitter=cfg.jitter,
                    max_shift=cfg.max_shift,
                    blur_prob=cfg.blur_prob,
                    occlusion_prob=cfg.occlusion_prob,
                )
            )
            labels.append(label)
    x = np.stack(images)
    y = np.asarray(labels, dtype=np.int64)
    order = rng.permutation(len(y))
    return x[order], y[order]


def oracle_train_test(cfg: GtsrbConfig) -> tuple[list[np.ndarray], dict]:
    """The four arrays of ``train_test()`` and the generator state after."""
    rng = new_rng(cfg.seed)
    train = oracle_generate(cfg, cfg.train_per_class, rng)
    test = oracle_generate(cfg, cfg.test_per_class, rng)
    return [*train, *test], rng.bit_generator.state


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def generated(cfg: GtsrbConfig) -> tuple[list[np.ndarray], dict]:
    """``train_test()``'s four arrays and the state its generator ends in."""
    made: list[np.random.Generator] = []

    def recording_rng(seed: int) -> np.random.Generator:
        made.append(new_rng(seed))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.data.gtsrb.new_rng", recording_rng)
        train, test = SyntheticGTSRB(cfg).train_test()
    (rng,) = made
    return [train.images, train.labels, test.images, test.labels], rng.bit_generator.state


def assert_same_dataset(cfg: GtsrbConfig) -> None:
    got, got_state = generated(cfg)
    want, want_state = oracle_train_test(cfg)
    for name, g, w in zip(("train x", "train y", "test x", "test y"), got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert g.flags.c_contiguous, name
        assert g.tobytes() == w.tobytes(), f"{name} differs for {cfg}"
    assert got_state == want_state, f"generator state differs for {cfg}"


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
        assert_same_dataset(workload_configs(seed)[workload])

    @pytest.mark.parametrize("name", list(VARIANTS))
    def test_config_variants(self, name):
        assert_same_dataset(VARIANTS[name])

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
        assert_same_dataset(GtsrbConfig(**fields))


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
    whose generator is frozen above — an edit to the oracle (or to the
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
