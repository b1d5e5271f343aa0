"""Synthetic GTSRB-like traffic-sign dataset.

The paper evaluates on GTSRB (German Traffic Sign Recognition Benchmark,
43 classes).  The sandbox has no network access, so this module generates
a *parametric* 43-class stand-in: every class is a distinct combination of
sign silhouette (circle / triangle / inverted triangle / octagon /
diamond / square), rim colour (red / blue / yellow / white) and an inner
glyph (bars, arrows, crosses, dots at class-specific positions), rendered
analytically on a coordinate grid — no image libraries needed.

Per-sample augmentation reproduces the nuisances that make GTSRB
non-trivial: brightness/contrast jitter, additive Gaussian noise, random
translation, box blur and rectangular occlusion.  Difficulty is
controlled by :class:`GtsrbConfig` so tests can use an easy/fast setting
while paper-figure runs use a harder one.

Why the substitution is faithful for this paper: Fig. 2 compares training
*protocols* (CL/SL/FL/GSFL) on the same dataset; the scheme ordering and
latency results depend on the protocol structure and payload sizes, not
on the specific pixel statistics of German roads.

How a split is built: ``SyntheticGTSRB._generate`` allocates the
``(N, 3, H, W)`` array once and ``_render_class`` fills it a class at a
time.  Only the random draws run per sample (the stream interleaves
conditional draws, so their order is the dataset's identity); geometry,
colour, jitter, blur and clipping are array expressions over the class.
The per-sample generator this replaced lives on, frozen, in
``tests/reference/data.py``; ``tests/data/test_gtsrb_oracle.py`` holds
both to the same bytes and the same generator state afterwards.

Rendering is float64 throughout; the split is *stored* in the compute
dtype (:func:`repro.nn.get_default_dtype` when it is built).  The final
permutation gather writes the rendered images into the stored array a
bounded chunk at a time, so a float64 run keeps exactly the rendered
bytes and a float32 run holds half of them — the float32 values each
batch was cast to on entering the graph anyway — and no permuted
float64 copy of the split is ever made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.dtype import get_default_dtype
from repro.utils.rng import new_rng
from repro.utils.validation import check_non_negative, check_positive, check_probability

__all__ = ["GtsrbConfig", "SyntheticGTSRB", "NUM_CLASSES", "class_spec"]

NUM_CLASSES = 43

#: samples per step of the permutation gather into the stored split
_GATHER_CHUNK = 128

#: rim colours (RGB in [0,1])
_COLORS = {
    "red": (0.85, 0.10, 0.10),
    "blue": (0.10, 0.25, 0.85),
    "yellow": (0.90, 0.80, 0.10),
    "white": (0.92, 0.92, 0.92),
}

_SHAPES = ("circle", "triangle", "inv_triangle", "octagon", "diamond", "square")

_GLYPHS = (
    "none",
    "hbar",
    "vbar",
    "dbar",
    "cross",
    "dot",
    "two_dots",
    "arrow_up",
    "arrow_right",
    "chevron",
)


@dataclass(frozen=True)
class SignSpec:
    """Deterministic appearance recipe for one class."""

    shape: str
    color: str
    glyph: str
    glyph_scale: float


def class_spec(label: int) -> SignSpec:
    """Map a class label in [0, 43) to its deterministic appearance.

    The mapping enumerates (shape, colour, glyph) combinations in a fixed
    order, with a per-class glyph scale so even classes sharing a glyph
    family remain separable.
    """
    if not 0 <= label < NUM_CLASSES:
        raise ValueError(f"label must be in [0, {NUM_CLASSES}), got {label}")
    shape = _SHAPES[label % len(_SHAPES)]
    color = list(_COLORS)[(label // len(_SHAPES)) % len(_COLORS)]
    glyph = _GLYPHS[label % len(_GLYPHS)]
    glyph_scale = 0.35 + 0.3 * ((label * 7) % 5) / 4.0
    return SignSpec(shape=shape, color=color, glyph=glyph, glyph_scale=glyph_scale)


def _shape_mask(shape: str, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Boolean silhouette mask on centred coordinates in [-1, 1]."""
    if shape == "circle":
        return yy**2 + xx**2 <= 0.81
    if shape == "triangle":
        return (yy <= 0.75) & (yy >= 1.9 * np.abs(xx) - 0.85)
    if shape == "inv_triangle":
        return (yy >= -0.75) & (yy <= 0.85 - 1.9 * np.abs(xx))
    if shape == "octagon":
        return (np.abs(xx) <= 0.85) & (np.abs(yy) <= 0.85) & (np.abs(xx) + np.abs(yy) <= 1.2)
    if shape == "diamond":
        return np.abs(xx) + np.abs(yy) <= 0.9
    if shape == "square":
        return (np.abs(xx) <= 0.8) & (np.abs(yy) <= 0.8)
    raise ValueError(f"unknown shape {shape!r}")


def _glyph_mask(glyph: str, scale: float, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Boolean inner-glyph mask on centred coordinates."""
    s = scale
    if glyph == "none":
        return np.zeros_like(xx, dtype=bool)
    if glyph == "hbar":
        return (np.abs(yy) <= 0.18 * s * 2) & (np.abs(xx) <= 0.55 * s * 2)
    if glyph == "vbar":
        return (np.abs(xx) <= 0.18 * s * 2) & (np.abs(yy) <= 0.55 * s * 2)
    if glyph == "dbar":
        return (np.abs(yy - xx) <= 0.22 * s * 2) & (np.abs(xx) <= 0.55) & (np.abs(yy) <= 0.55)
    if glyph == "cross":
        return ((np.abs(xx) <= 0.15 * s * 2) | (np.abs(yy) <= 0.15 * s * 2)) & (
            np.maximum(np.abs(xx), np.abs(yy)) <= 0.55
        )
    if glyph == "dot":
        return yy**2 + xx**2 <= (0.3 * s) ** 2 * 4
    if glyph == "two_dots":
        left = (yy**2 + (xx + 0.3) ** 2) <= (0.22 * s) ** 2 * 4
        right = (yy**2 + (xx - 0.3) ** 2) <= (0.22 * s) ** 2 * 4
        return left | right
    if glyph == "arrow_up":
        head = (yy <= -0.05) & (yy >= 1.8 * np.abs(xx) - 0.62 * s - 0.25)
        tail = (np.abs(xx) <= 0.12 * s * 2) & (yy > -0.1) & (yy <= 0.5)
        return head | tail
    if glyph == "arrow_right":
        head = (xx >= 0.05) & (xx <= 0.62 * s + 0.25 - 1.8 * np.abs(yy))
        tail = (np.abs(yy) <= 0.12 * s * 2) & (xx < 0.1) & (xx >= -0.5)
        return head | tail
    if glyph == "chevron":
        return (np.abs(yy - 0.8 * np.abs(xx)) <= 0.16 * s * 2) & (np.abs(xx) <= 0.5)
    raise ValueError(f"unknown glyph {glyph!r}")


def _render_class(
    label: int,
    out: np.ndarray,
    work: np.ndarray,
    rng: np.random.Generator,
    noise_std: float,
    jitter: float,
    max_shift: int,
    blur_prob: float,
    occlusion_prob: float,
) -> None:
    """Fill ``out``, shape ``(n, 3, size, size)``, with ``n`` augmented
    samples of class ``label``; ``work`` is scratch of shape ``(2, n, 3,
    size, size)`` (two images per sample), handed in so that rendering
    class after class asks the allocator for nothing class-sized.

    Two passes.  The draws run sample by sample in the one order the
    stream allows (blur and occlusion draw conditionally, so no draw can
    be hoisted past its predecessor) and each sample's noise lands
    directly in its slot of ``out``.  Everything computed *from* the draws
    is then an array expression over the whole class, elementwise the
    arithmetic a single sample would see: a sample's bytes do not depend
    on how many others are rendered with it.
    """
    spec = class_spec(label)
    n, _, size, _ = out.shape
    shift = np.empty((n, 2), dtype=np.int64)
    background = np.empty((n, 3))
    gain = np.empty(n)
    bias = np.empty(n)
    blurred: list[int] = []
    occlusions: list[tuple[int, slice, slice, float]] = []
    for i in range(n):
        shift[i, 0] = rng.integers(-max_shift, max_shift + 1)
        shift[i, 1] = rng.integers(-max_shift, max_shift + 1)
        background[i] = rng.random(3)
        gain[i] = rng.random()
        bias[i] = rng.random()
        out[i] = rng.normal(0.0, noise_std, size=out.shape[1:]) if noise_std > 0 else 0.0
        if rng.random() < blur_prob:
            blurred.append(i)
        if rng.random() < occlusion_prob:
            oh = rng.integers(size // 6, size // 3 + 1)
            ow = rng.integers(size // 6, size // 3 + 1)
            oy = rng.integers(0, size - oh + 1)
            ox = rng.integers(0, size - ow + 1)
            occlusions.append((i, slice(oy, oy + oh), slice(ox, ox + ow), rng.random()))

    # Random centre shift implemented as a coordinate offset; ``yy`` varies
    # down a column and ``xx`` along a row, and the masks broadcast them.
    coords = np.linspace(-1.0, 1.0, size)
    offsets = shift * (2.0 / size)
    yy = (coords + offsets[:, :1])[:, :, None]
    xx = (coords + offsets[:, 1:])[:, None, :]

    sign = _shape_mask(spec.shape, yy, xx)
    glyph = _glyph_mask(spec.glyph, spec.glyph_scale, yy, xx) & sign
    rim = sign & ~_shape_mask(spec.shape, yy * 1.35, xx * 1.35)

    img = work[0]
    img[:] = (0.25 + 0.2 * background)[:, :, None, None]
    face = _COLORS["white"] if spec.color != "white" else (0.75, 0.75, 0.75)
    for channel in range(3):
        plane = img[:, channel]
        plane[sign] = face[channel]
        plane[rim] = _COLORS[spec.color][channel]
        plane[glyph] = 0.05  # near-black, every channel
    # Photometric jitter (contrast scale, then brightness offset), then noise.
    img *= (1.0 + jitter * (gain - 0.5) * 2.0)[:, None, None, None]
    img += (jitter * 0.3 * (bias - 0.5) * 2.0)[:, None, None, None]
    out += img

    if blurred:
        # mode="clip": the default "raise" gathers into a temporary first
        source = np.take(out, blurred, axis=0, out=work[0, : len(blurred)], mode="clip")
        out[blurred] = _box_blur(source, work[1, : len(blurred)])
    for i, ys, xs, value in occlusions:
        out[i, :, ys, xs] = value
    np.clip(out, 0.0, 1.0, out=out)


def _box_blur(imgs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """3x3 box blur of every ``(..., H, W)`` plane of ``imgs`` into ``out``
    (edges handled by same-size accumulation: a border pixel averages the
    neighbours it has)."""
    height, width = imgs.shape[-2:]
    out[...] = 0.0
    count = np.zeros((height, width))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            src_y = slice(max(0, -dy), height - max(0, dy))
            src_x = slice(max(0, -dx), width - max(0, dx))
            dst_y = slice(max(0, dy), height - max(0, -dy))
            dst_x = slice(max(0, dx), width - max(0, -dx))
            out[..., dst_y, dst_x] += imgs[..., src_y, src_x]
            count[dst_y, dst_x] += 1.0
    out /= count
    return out


@dataclass
class GtsrbConfig:
    """Generation parameters for the synthetic GTSRB stand-in.

    ``imbalance`` reproduces GTSRB's long-tailed class frequencies: class
    sample counts follow a geometric profile with the given ratio between
    the most and least frequent class (1.0 = balanced).
    """

    num_classes: int = NUM_CLASSES
    image_size: int = 20
    train_per_class: int = 40
    test_per_class: int = 10
    noise_std: float = 0.08
    jitter: float = 0.25
    max_shift: int = 2
    blur_prob: float = 0.3
    occlusion_prob: float = 0.15
    imbalance: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.num_classes <= NUM_CLASSES:
            raise ValueError(
                f"num_classes must be in [1, {NUM_CLASSES}], got {self.num_classes}"
            )
        check_positive("image_size", self.image_size)
        check_positive("train_per_class", self.train_per_class)
        check_positive("test_per_class", self.test_per_class)
        check_non_negative("noise_std", self.noise_std)
        check_non_negative("jitter", self.jitter)
        check_non_negative("max_shift", self.max_shift)
        check_probability("blur_prob", self.blur_prob)
        check_probability("occlusion_prob", self.occlusion_prob)
        if self.imbalance < 1.0:
            raise ValueError(f"imbalance ratio must be >= 1, got {self.imbalance}")

    def class_counts(self, per_class: int) -> np.ndarray:
        """Per-class sample counts under the configured imbalance."""
        if self.imbalance == 1.0:
            return np.full(self.num_classes, per_class, dtype=np.int64)
        # geometric profile: count_k = per_class * ratio^(-k/(K-1)) scaled
        # so the max class keeps ``per_class`` samples
        k = np.arange(self.num_classes)
        decay = self.imbalance ** (-k / max(self.num_classes - 1, 1))
        counts = np.maximum(1, np.round(per_class * decay)).astype(np.int64)
        return counts


class SyntheticGTSRB:
    """Factory for train/test splits of the synthetic sign dataset.

    A split's images are stored in the compute dtype in force when it is
    built, and keep it — like a parameter's, the dataset's dtype is fixed
    at build time.
    """

    def __init__(self, config: GtsrbConfig | None = None) -> None:
        self.config = config or GtsrbConfig()

    def _generate(self, per_class: int, rng: np.random.Generator) -> ArrayDataset:
        cfg = self.config
        counts = cfg.class_counts(per_class)
        y = np.repeat(np.arange(cfg.num_classes, dtype=np.int64), counts)
        x = np.empty((len(y), 3, cfg.image_size, cfg.image_size))
        work = np.empty((2, counts.max(), 3, cfg.image_size, cfg.image_size))
        stops = np.cumsum(counts)
        for label, (start, stop) in enumerate(zip(stops - counts, stops)):
            _render_class(
                label,
                x[start:stop],
                work[:, : stop - start],
                rng,
                cfg.noise_std,
                cfg.jitter,
                cfg.max_shift,
                cfg.blur_prob,
                cfg.occlusion_prob,
            )
        order = rng.permutation(len(y))
        images = np.empty(x.shape, dtype=get_default_dtype())
        for start in range(0, len(order), _GATHER_CHUNK):
            stop = start + _GATHER_CHUNK
            images[start:stop] = x[order[start:stop]]
        return ArrayDataset(images, y[order])

    def peak_bytes(self) -> int:
        """Bytes :meth:`train_test` holds at its peak, from the shapes
        :meth:`_generate` allocates.

        A split's build holds at once the float64 render ``x``, the
        float64 ``work`` scratch (two of its largest class), one float64
        gather chunk, the stored images in the compute dtype and three
        int64 arrays of the split's length (``y``, the permutation and the
        permuted labels); the train split stays held while the test split
        is built.  Counted in Python integers, so no size can wrap.
        """
        cfg = self.config
        pixels = 3 * cfg.image_size**2
        itemsize = get_default_dtype().itemsize

        def build(per_class: int) -> tuple[int, int]:
            counts = cfg.class_counts(per_class).tolist()
            n = sum(counts)
            stored = n * (pixels * itemsize + 8)
            scratch = (n + 2 * max(counts) + min(n, _GATHER_CHUNK)) * pixels * 8 + 16 * n
            return scratch + stored, stored

        train_peak, train_stored = build(cfg.train_per_class)
        test_peak, _ = build(cfg.test_per_class)
        return max(train_peak, train_stored + test_peak)

    def train_test(self) -> tuple[ArrayDataset, ArrayDataset]:
        """Generate the (train, test) pair deterministically from the seed."""
        rng = new_rng(self.config.seed)
        train = self._generate(self.config.train_per_class, rng)
        test = self._generate(self.config.test_per_class, rng)
        return train, test

    @property
    def input_shape(self) -> tuple[int, int, int]:
        """Per-sample image shape ``(3, H, W)``."""
        return (3, self.config.image_size, self.config.image_size)
