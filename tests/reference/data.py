"""The data path as it was before its rewrites.

Each block is verbatim from the commit before the rewrite named in its
header; the tests named there hold the rewrite to it.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.gtsrb import _COLORS, GtsrbConfig, _glyph_mask, _shape_mask, class_spec
from repro.utils.rng import new_rng

# ----------------------------------------------------------------------
# The per-sample GTSRB generator: one ``render_sign`` call per sample, a
# nine-pass box blur per blurred image, a Python list and ``np.stack``
# (``tests/data/test_gtsrb_oracle.py``).  It shares ``class_spec`` and the
# two mask functions with ``src``, which did not change.
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
# Batching one item at a time, before ``Dataset.take``
# (``tests/data/test_dataset.py``).
# ----------------------------------------------------------------------


def per_item_batch(dataset: Dataset, indices) -> tuple[np.ndarray, np.ndarray]:
    """The batching code ``take`` replaced, verbatim."""
    xs, ys = zip(*(dataset[int(i)] for i in indices))
    return np.stack(xs), np.asarray(ys)
