"""Functional neural-network operations over :class:`repro.nn.tensor.Tensor`.

Convolution is im2col + one BLAS matmul per layer — the standard way to
get a usable CNN out of pure numpy — with the patch matrix laid out K-major
so that building it is a handful of contiguous slice copies.  Pooling works
directly on strided window views and never materialises patches.

Layout contract: every 4-D activation and gradient an op produces is
C-contiguous ``(N, C, H, W)``.  Elementwise ops, pooling and BatchNorm walk
memory in the order of the array they are handed, so one transposed view
upstream makes all of them stride (``tests/nn/test_layout_contract.py``
guards it on the real models).

All functions are autograd-aware: each returns one graph node (``linear``
included: matmul and bias share a closure) whose closure keeps only what its
backward reads.  ``linear`` keeps both operands; ``conv2d`` keeps its patch
matrix and the weight view, not its input or output; ``max_pool2d`` keeps
its input windows (views of an input a ReLU node holds anyway), not its
output, whose maxima it recomputes in backward.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Node, Tensor, is_grad_enabled, unbroadcast

__all__ = [
    "linear",
    "conv2d",
    "max_pool2d",
    "col2im",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a conv/pool along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output size: input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def _im2col_t(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> np.ndarray:
    """K-major patch matrix of ``x`` ``(N, C, H, W)``.

    Returns a C-contiguous ``(C * kernel_h * kernel_w, N * out_h * out_w)``
    array: row ``(c, i, j)`` holds input channel ``c`` at window offset
    ``(i, j)`` for every output position.  Each of the ``kernel_h *
    kernel_w`` offsets is one strided-slice copy into a contiguous block,
    which is several times cheaper than gathering receptive fields row by
    row.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    # The patch matrix is the largest buffer of a forward pass: ask for it
    # before the padded copy, which would otherwise take the head of the one
    # free block it fits in (at evaluation batch sizes the miss is a fresh
    # 14 MiB mapping on top of the peak).
    cols_t = np.empty((c, kernel_h, kernel_w, n, out_h, out_w), dtype=x.dtype)
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    channel_major = x.transpose(1, 0, 2, 3)  # (C, N, H, W) view
    for i in range(kernel_h):
        h_end = i + stride * out_h
        for j in range(kernel_w):
            w_end = j + stride * out_w
            cols_t[:, i, j] = channel_major[:, :, i:h_end:stride, j:w_end:stride]
    return cols_t.reshape(c * kernel_h * kernel_w, n * out_h * out_w)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of the patch matrix (:func:`_im2col_t`, transposed):
    scatter-add receptive-field rows back into an image.

    Accumulates channels-last — there the channel run of a patch row lands
    on a contiguous run of the image — and hands back the usual C-contiguous
    ``(N, C, H, W)`` array.  Every element still receives its contributions
    in ``(i, j)`` order, so the layout detour does not change a bit.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)

    patches = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    for i in range(kernel_h):
        h_end = i + stride * out_h
        for j in range(kernel_w):
            w_end = j + stride * out_w
            padded[:, i:h_end:stride, j:w_end:stride] += patches[..., i, j]

    interior = padded[:, padding : padding + h, padding : padding + w]
    return np.ascontiguousarray(interior.transpose(0, 3, 1, 2))


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in).

    One autograd node that saves nothing beyond its two operands.  Forward
    and backward evaluate the numpy expressions a ``transpose`` → ``matmul``
    → ``add`` chain would, operand layouts included, so the values are that
    chain's bit for bit (``tests/nn/test_fused_head.py`` keeps it as the
    reference).
    """
    a, w = x.data, weight.data
    out_data = a @ w.transpose()
    if bias is not None:
        out_data = out_data + bias.data

    def _bw(grad: np.ndarray, to_x: Node | None, to_w: Node | None,
            to_b: Node | None = None) -> None:
        if to_x is not None:
            to_x._accumulate(unbroadcast(grad @ w, a.shape), True)
        if to_w is not None:
            gw = np.outer(a, grad) if a.ndim == 1 else np.swapaxes(a, -1, -2) @ grad
            to_w._accumulate(unbroadcast(gw, w.shape[::-1]).transpose(), True)
        if to_b is not None:
            to_b._accumulate(unbroadcast(grad, b_shape))

    b_shape = None if bias is None else bias.shape
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out_data, inputs, "linear", _bw)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D cross-correlation.

    Parameters
    ----------
    x:
        Input tensor, shape ``(N, C_in, H, W)``.
    weight:
        Filters, shape ``(C_out, C_in, kH, kW)``.
    bias:
        Optional per-channel bias of shape ``(C_out,)``.

    The patch matrix is built K-major (:func:`_im2col_t`) and enters every
    GEMM as the *transposed* operand, so BLAS sees the same ``m``/``n``/``k``
    roles — and returns the same bits — as a row-per-receptive-field matrix
    would.  (Producing ``(C_out, N*oh*ow)`` instead swaps the roles and moves
    the last ulp.)  The ``(N*oh*ow, C_out)`` product is then written once
    into a C-contiguous ``(N, C_out, oh, ow)`` array, and the backward
    gathers its contiguous gradient back into ``(N*oh*ow, C_out)`` rows: two
    copies per layer that spare every op downstream a transposed view.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input has {c_in} channels but weight expects {c_in_w}")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols_t = _im2col_t(x.data, kh, kw, stride, padding)  # (C_in*kh*kw, N*oh*ow)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C_in*kh*kw)
    out_data = cols_t.T @ w_mat.T  # (N*oh*ow, C_out)
    if bias is not None:
        if bias.dtype == out_data.dtype:
            out_data += bias.data  # in place: spares an (N*oh*ow, C_out) temporary
        else:
            out_data = out_data + bias.data
    requires = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad
    )
    if not (requires and is_grad_enabled()):
        # No backward will read the patch matrix (evaluation): release it
        # before the layout copy, where a ``no_grad`` forward would peak.
        del cols_t
    out_data = np.ascontiguousarray(
        out_data.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    )

    def _bw(grad: np.ndarray, to_x: Node | None, to_w: Node | None,
            to_b: Node | None = None) -> None:
        nonlocal cols_t
        # grad: (N, C_out, oh, ow) -> (N*oh*ow, C_out)
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if to_w is not None:
            gw = grad_mat.T @ cols_t.T  # (C_out, C_in*kh*kw)
            to_w._accumulate(gw.reshape(w_shape), True)
        # The weight gradient was the patch matrix's last reader: release
        # it before ``gcols`` (the same size) and ``col2im`` allocate.
        cols_t = None
        if to_b is not None:
            to_b._accumulate(grad_mat.sum(axis=0), True)
        if to_x is not None:
            gcols = grad_mat @ w_mat  # (N*oh*ow, C_in*kh*kw)
            del grad_mat
            to_x._accumulate(col2im(gcols, (n, c_in, h, w), kh, kw, stride, padding), True)

    w_shape = weight.shape
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out_data, inputs, "conv2d", _bw)


def _pool_windows(
    x: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> list[np.ndarray]:
    """The ``kernel**2`` strided ``(N, C, out_h, out_w)`` views of ``x``, one
    per window offset, in row-major ``(i, j)`` order."""
    return [
        x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
        for i in range(kernel)
        for j in range(kernel)
    ]


def _pool_grad(
    x_shape: tuple[int, ...], dtype: np.dtype, kernel: int, stride: int, out_h: int, out_w: int
) -> tuple[np.ndarray, list[np.ndarray], bool]:
    """A fresh input gradient for a pooling op, its window views (as
    :func:`_pool_windows` orders them) and whether the windows tile it.

    Windows that tile the input exactly cover each element once, so a
    backward assigns into the (uninitialised) views; otherwise it adds
    into zeros in ``(i, j)`` order (overlapping windows sum, uncovered
    borders stay zero).
    """
    _, _, h, w = x_shape
    tiles = stride == kernel and h == out_h * kernel and w == out_w * kernel
    gx = (np.empty if tiles else np.zeros)(x_shape, dtype=dtype)
    return gx, _pool_windows(gx, kernel, stride, out_h, out_w), tiles


def _window_max(windows: list[np.ndarray]) -> np.ndarray:
    """Elementwise maximum of pooling windows, taken in (i, j) order."""
    top = windows[0].copy()
    for window in windows[1:]:
        np.maximum(top, window, out=top)
    return top


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling with square window.  ``stride`` defaults to ``kernel``."""
    stride = kernel if stride is None else stride
    x_shape = x.shape
    _, _, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)

    windows = _pool_windows(x.data, kernel, stride, out_h, out_w)

    def _bw(grad: np.ndarray, to_x: Node) -> None:
        # Route each window's gradient to its first maximum in (i, j) order
        # (``argmax``'s tie rule; ReLU zeros tie all the time), written
        # straight into that window's view of the input gradient.  The
        # maxima are recomputed rather than kept: the output is then free
        # to die with the next op's forward.
        top = _window_max(windows)
        gx, views, tiles = _pool_grad(x_shape, grad.dtype, kernel, stride, out_h, out_w)
        unclaimed = np.ones(top.shape, dtype=bool)
        for window, view in zip(windows, views):
            hit = window == top
            hit &= unclaimed
            unclaimed ^= hit
            if tiles:
                np.multiply(grad, hit, out=view)
            else:
                view += grad * hit
        to_x._accumulate(gx, True)

    return Tensor._from_op(_window_max(windows), (x,), "max_pool2d", _bw)
