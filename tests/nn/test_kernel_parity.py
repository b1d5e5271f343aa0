"""Parity of the K-major conv / slice-pooling kernels with the gather-based
kernels they replaced.

The old kernels live on, frozen, as the reference in
``tests/reference/nn_ops.py`` (``src/`` keeps one code path).  Three fences:

(a) on every conv / pool shape the golden histories and the four
    ``BENCHMARK.json`` workloads execute, forward output and all gradients
    are exactly equal — same values, same dtype — in float32 and float64,
    and every array the new kernels hand on is C-contiguous ``(N, C, H, W)``
    (the layout contract of ``repro.nn``; the reference kernels returned
    NHWC-memory views, and nothing downstream depends on that any more);
(b) over random geometry (kernel 1–4, stride 1–3, padding 0–2, odd sizes,
    overlapping pooling windows) they agree to rounding.  Bits are not
    demanded there: a GEMM whose patch operand is transposed may differ
    from the reference in the last ulp on arbitrary shapes (≈3% of random
    cases);
(c) max-pool ties route the gradient to the first maximum in row-major
    window order, as ``argmax`` did.

"Exactly equal" is ``==`` on every element: the sign of a zero may differ
(``np.maximum`` does not promise which of ``-0.0``/``+0.0`` it returns, and
ReLU emits both), which no comparison, sum or product downstream can see.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models.cnn import deepthin_cnn, micro_cnn
from repro.nn import functional as F
from repro.nn.norm import _BatchNorm
from repro.nn.tensor import Tensor
from tests.reference import assert_same
from tests.reference.nn_ops import (
    BOUND,
    composed_batchnorm_forward,
    ref_conv2d,
    ref_max_pool2d,
    relative_error,
)

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

DTYPES = [np.float32, np.float64]


def channels_last(a: np.ndarray) -> np.ndarray:
    """``(N, C, H, W)`` values in NHWC memory — a foreign layout since convs
    return contiguous NCHW; pooling must still give equal values on it."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def relu_like(rng: np.random.Generator, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Post-ReLU activations: about half the entries are zero.  The zeros
    carry either sign (``x * mask``, as ``Tensor.relu`` once computed them) —
    the harder case for the tie rule than ``np.maximum``'s ``+0.0``."""
    a = rng.normal(size=shape).astype(dtype)
    return a * (a > 0)


def run_conv(conv, x, w, b, upstream, stride, padding):
    xt = Tensor(x.copy(), requires_grad=True)
    wt = Tensor(w.copy(), requires_grad=True)
    bt = Tensor(b.copy(), requires_grad=True)
    out = conv(xt, wt, bt, stride=stride, padding=padding)
    out.backward(upstream)
    return out.data, xt.grad, wt.grad, bt.grad


def run_pool(pool, x, upstream, kernel, stride):
    xt = Tensor(x, requires_grad=True)
    out = pool(xt, kernel, stride)
    out.backward(upstream)
    return out.data, xt.grad


# ----------------------------------------------------------------------
# (a) the shapes that are pinned by goldens and benchmark digests
# ----------------------------------------------------------------------

#: (c_in, spatial, c_out): DeepThin at 20×20 and micro_cnn at 16×16.  All
#: are 3×3, stride 1, padding 1.
DEEPTHIN_CONVS = [(3, 20, 16), (16, 10, 32), (32, 5, 32)]
MICRO_CONVS = [(3, 16, 8), (8, 8, 16)]
#: (channels, spatial) entering each 2×2 / stride-2 max pool
DEEPTHIN_POOLS = [(16, 20), (32, 10)]
MICRO_POOLS = [(8, 16), (16, 8)]
#: train batch, last partial evaluation batch, full evaluation batch
DEEPTHIN_BATCHES = [16, 88, 256]
MICRO_BATCHES = [16, 60, 96]

CONV_CASES = [
    (n, *geom) for geom in DEEPTHIN_CONVS for n in DEEPTHIN_BATCHES
] + [(n, *geom) for geom in MICRO_CONVS for n in MICRO_BATCHES]
POOL_CASES = [
    (n, *geom) for geom in DEEPTHIN_POOLS for n in DEEPTHIN_BATCHES
] + [(n, *geom) for geom in MICRO_POOLS for n in MICRO_BATCHES]


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("n, c_in, size, c_out", CONV_CASES)
def test_conv2d_is_exact_on_pinned_shapes(n, c_in, size, c_out, dtype):
    rng = np.random.default_rng([n, c_in, size, c_out])
    with nn.default_dtype(dtype):
        x = rng.normal(size=(n, c_in, size, size)).astype(dtype)
        w = (rng.normal(size=(c_out, c_in, 3, 3)) * 0.2).astype(dtype)
        b = rng.normal(size=(c_out,)).astype(dtype)
        upstream = rng.normal(size=(n, c_out, size, size)).astype(dtype)
        got = run_conv(F.conv2d, x, w, b, upstream, 1, 1)
        want = run_conv(ref_conv2d, x, w, b, upstream, 1, 1)
    assert_same(got, want, by_value=True, contiguous=True)


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize(
    "n, c, size, nhwc",
    [pytest.param(*case, False, id="-".join(map(str, case))) for case in POOL_CASES]
    + [pytest.param(16, 16, 20, True, id="16-16-20-nhwc")],
)
def test_pooling_is_exact_on_pinned_shapes(n, c, size, nhwc, dtype):
    rng = np.random.default_rng([n, c, size])
    with nn.default_dtype(dtype):
        x = relu_like(rng, (n, c, size, size), dtype)  # contiguous, as a conv hands it on
        if nhwc:
            x = channels_last(x)
        upstream = rng.normal(size=(n, c, size // 2, size // 2)).astype(dtype)
        got = run_pool(F.max_pool2d, x, upstream, 2, 2)
        want = run_pool(ref_max_pool2d, x, upstream, 2, 2)
    assert_same(got, want, by_value=True, contiguous=True)


def whole_model_step(build, size, batch, dtype, patch_reference=None):
    """Logits and every parameter gradient of one training step through the
    real layer stack (conv → [BatchNorm →] ReLU → pool → …), where each
    kernel sees what its neighbours actually produce.  ``patch_reference``
    swaps in the frozen kernels before the model runs."""
    rng = np.random.default_rng(size)
    with nn.default_dtype(dtype):
        x = rng.normal(size=(batch, 3, size, size)).astype(dtype)
        y = rng.integers(0, 43, size=batch)
        if patch_reference is not None:
            patch_reference.setattr(F, "conv2d", ref_conv2d)
            patch_reference.setattr(F, "max_pool2d", ref_max_pool2d)
            patch_reference.setattr(_BatchNorm, "forward", composed_batchnorm_forward)
        model = build(image_size=size, seed=3)
        logits = model(Tensor(x))
        nn.CrossEntropyLoss()(logits, y).backward()
        return {"logits": logits.data} | {
            name: p.grad for name, p in model.named_parameters()
        }


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
@pytest.mark.parametrize("build, size, batch", [(micro_cnn, 16, 16)], ids=["micro_cnn"])
def test_whole_model_step_is_exact(monkeypatch, build, size, batch, dtype):
    """A BatchNorm-free model is made of kernels that are each exact, so the
    whole step is: the reference runs on NHWC-memory views, the library on
    contiguous arrays, and no value differs."""
    got = whole_model_step(build, size, batch, dtype)
    want = whole_model_step(build, size, batch, dtype, patch_reference=monkeypatch)
    assert len(got) > 1
    assert_same(got, want, by_value=True)
    assert all(g.ndim != 4 or g.flags.c_contiguous for g in got.values())


@pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
def test_deepthin_step_matches_composed_batchnorm(monkeypatch, dtype):
    """DeepThin is the one model with BatchNorm, and BatchNorm is the one op
    whose float program changed: the fused node sums ``(x-μ)²`` and ``g·x̂``
    in one ``einsum`` pass over contiguous memory where the composed graph
    summed a materialised product pairwise over an NHWC view.  That single
    reassociation moves the last ulps of everything downstream, so the
    fence against the all-reference step (gather conv, argmax pool, composed
    BatchNorm) is the normwise bound of ``test_batchnorm_fused.py`` — 1e-12
    in float64, 1e-5 in float32 — on the logits and every gradient.

    The biases of the two convs that feed a BatchNorm have a gradient of
    exactly zero in real arithmetic (the batch mean absorbs a bias), so both
    programs return rounding noise there; it is held to the bound on the
    scale of the same conv's weight gradient."""
    got = whole_model_step(deepthin_cnn, 20, 16, dtype)
    want = whole_model_step(deepthin_cnn, 20, 16, dtype, patch_reference=monkeypatch)
    assert list(got) == list(want) and len(got) == 1 + 12
    for name in got:
        g, r = got[name], want[name]
        assert g.ndim != 4 or g.flags.c_contiguous
        if name in ("0.bias", "4.bias"):
            noise_floor = BOUND[dtype] * np.abs(want[name.replace("bias", "weight")]).max()
            assert max(np.abs(g).max(), np.abs(r).max()) <= noise_floor, name
        else:
            assert relative_error(g, r) <= BOUND[dtype], name


# ----------------------------------------------------------------------
# (b) random geometry, to rounding
# ----------------------------------------------------------------------

TOLERANCE = {np.float32: dict(rtol=1e-4, atol=1e-5), np.float64: dict(rtol=1e-11, atol=1e-12)}

#: (n, c, h, w, kernel, stride, seed, dtype)
geometry = st.tuples(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(4, 11),
    st.integers(4, 11),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.sampled_from(DTYPES),
)


@settings(max_examples=60, deadline=None)
@given(geometry, st.integers(0, 2), st.integers(1, 5))
def test_conv2d_matches_reference_on_random_geometry(geo, padding, c_out):
    n, c, h, w, kernel, stride, seed, dtype = geo
    rng = np.random.default_rng(seed)
    out_h = F.conv_output_size(h, kernel, stride, padding)
    out_w = F.conv_output_size(w, kernel, stride, padding)
    with nn.default_dtype(dtype):
        x = rng.normal(size=(n, c, h, w)).astype(dtype)
        wt = rng.normal(size=(c_out, c, kernel, kernel)).astype(dtype)
        b = rng.normal(size=(c_out,)).astype(dtype)
        upstream = rng.normal(size=(n, c_out, out_h, out_w)).astype(dtype)
        got = run_conv(F.conv2d, x, wt, b, upstream, stride, padding)
        want = run_conv(ref_conv2d, x, wt, b, upstream, stride, padding)
    for g, r in zip(got, want):
        np.testing.assert_allclose(g, r, **TOLERANCE[dtype])


@settings(max_examples=60, deadline=None)
@given(geometry, st.booleans())
def test_pooling_matches_reference_on_random_geometry(geo, nhwc):
    """Includes stride < kernel (overlapping windows, gradients sum),
    stride > kernel and sizes the windows do not cover (zero gradient)."""
    n, c, h, w, kernel, stride, seed, dtype = geo
    rng = np.random.default_rng(seed)
    out_h = F.conv_output_size(h, kernel, stride, 0)
    out_w = F.conv_output_size(w, kernel, stride, 0)
    with nn.default_dtype(dtype):
        x = relu_like(rng, (n, c, h, w), dtype)
        if nhwc:
            x = channels_last(x)
        upstream = rng.normal(size=(n, c, out_h, out_w)).astype(dtype)
        got = run_pool(F.max_pool2d, x, upstream, kernel, stride)
        want = run_pool(ref_max_pool2d, x, upstream, kernel, stride)
    for g, r in zip(got, want):
        np.testing.assert_allclose(g, r, **TOLERANCE[dtype])


# ----------------------------------------------------------------------
# (c) ties
# ----------------------------------------------------------------------


class TestMaxPoolTies:
    @staticmethod
    def grad_of(x: np.ndarray, kernel: int, stride: int | None = None) -> np.ndarray:
        xt = Tensor(x, requires_grad=True)
        out = F.max_pool2d(xt, kernel, stride)
        out.backward(np.arange(1.0, out.size + 1).reshape(out.shape))
        return xt.grad

    def test_all_zero_window_routes_to_top_left(self):
        g = self.grad_of(np.zeros((1, 1, 4, 4)), 2)
        expected = np.zeros((4, 4))
        expected[0, 0], expected[0, 2], expected[2, 0], expected[2, 2] = 1, 2, 3, 4
        np.testing.assert_array_equal(g[0, 0], expected)

    def test_signed_zeros_tie(self):
        """ReLU emits ``-0.0`` for negative inputs; it ties with ``+0.0``."""
        x = np.array([[-0.0, 0.0], [0.0, -0.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(self.grad_of(x, 2)[0, 0], [[1, 0], [0, 0]])
        np.testing.assert_array_equal(self.grad_of(-x, 2)[0, 0], [[1, 0], [0, 0]])

    def test_repeated_maximum_routes_to_first_in_row_major_order(self):
        x = np.array([[1.0, 5.0], [5.0, 5.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(self.grad_of(x, 2)[0, 0], [[0, 1], [0, 0]])
        x = np.array([[1.0, 2.0], [5.0, 5.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(self.grad_of(x, 2)[0, 0], [[0, 0], [1, 0]])

    def test_overlapping_windows_sum_at_a_shared_first_maximum(self):
        # 3-wide row, kernel 2, stride 1: both windows' first max is column 1.
        x = np.array([[0.0, 7.0, 7.0], [0.0, 0.0, 0.0]]).reshape(1, 1, 2, 3)
        np.testing.assert_array_equal(
            self.grad_of(x, 2, 1)[0, 0], [[0, 1 + 2, 0], [0, 0, 0]]
        )

    @pytest.mark.parametrize("dtype", DTYPES, ids=["f32", "f64"])
    def test_tie_heavy_input_matches_argmax_reference(self, dtype):
        rng = np.random.default_rng(7)
        with nn.default_dtype(dtype):
            # Three distinct values only: nearly every window has a repeat.
            x = channels_last(rng.integers(0, 3, size=(4, 5, 8, 8)).astype(dtype))
            upstream = rng.normal(size=(4, 5, 4, 4)).astype(dtype)
            got = run_pool(F.max_pool2d, x, upstream, 2, 2)
            want = run_pool(ref_max_pool2d, x, upstream, 2, 2)
        assert_same(got, want, by_value=True, contiguous=True)
