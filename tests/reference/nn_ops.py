"""The ``repro.nn`` ops as they were before their rewrites.

Each block is verbatim from the commit before the rewrite named in its
header; the tests named there hold the rewrite to it.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.norm import _BatchNorm
from repro.nn.tensor import Tensor

# ----------------------------------------------------------------------
# The gather-based conv / max-pool kernels as of the commit before the
# K-major rewrite (``tests/nn/test_kernel_parity.py``).
# ----------------------------------------------------------------------


def ref_im2col(x, kernel_h, kernel_w, stride, padding):
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s_n, s_c, s_h, s_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel_h * kernel_w
    )
    return np.ascontiguousarray(cols)


def ref_col2im(cols, x_shape, kernel_h, kernel_w, stride, padding):
    n, c, h, w = x_shape
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    reshaped = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w).transpose(
        0, 3, 1, 2, 4, 5
    )
    for i in range(kernel_h):
        h_end = i + stride * out_h
        for j in range(kernel_w):
            w_end = j + stride * out_w
            padded[:, :, i:h_end:stride, j:w_end:stride] += reshaped[:, :, :, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def ref_conv2d(x, weight, bias=None, stride=1, padding=0):
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = F.conv_output_size(h, kh, stride, padding)
    out_w = F.conv_output_size(w, kw, stride, padding)
    cols = ref_im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out_data = cols @ w_mat.T
    if bias is not None:
        out_data = out_data + bias.data
    out_data = out_data.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    w_shape = weight.shape

    def _bw(grad, to_x, to_w, to_b=None):
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, c_out)
        if to_w is not None:
            to_w._accumulate((grad_mat.T @ cols).reshape(w_shape))
        if to_b is not None:
            to_b._accumulate(grad_mat.sum(axis=0))
        if to_x is not None:
            gcols = grad_mat @ w_mat
            to_x._accumulate(ref_col2im(gcols, (n, c_in, h, w), kh, kw, stride, padding))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out_data, inputs, "conv2d", _bw)


def ref_max_pool2d(x, kernel, stride=None):
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    out_h = F.conv_output_size(h, kernel, stride, 0)
    out_w = F.conv_output_size(w, kernel, stride, 0)
    cols = ref_im2col(x.data.reshape(n * c, 1, h, w), kernel, kernel, stride, 0)
    argmax = cols.argmax(axis=1)
    out_data = cols[np.arange(cols.shape[0]), argmax].reshape(n, c, out_h, out_w)
    def _bw(grad, to_x):
        gcols = np.zeros_like(cols)
        gcols[np.arange(cols.shape[0]), argmax] = grad.reshape(-1)
        gx = ref_col2im(gcols, (n * c, 1, h, w), kernel, kernel, stride, 0)
        to_x._accumulate(gx.reshape(n, c, h, w))

    return Tensor._from_op(out_data, (x,), "max_pool2d", _bw)


# ----------------------------------------------------------------------
# ``_BatchNorm.forward`` as of the commit before the fused node
# (``tests/nn/test_batchnorm_fused.py``), and the bound the fusion's one
# reassociation is held to.
# ----------------------------------------------------------------------


def composed_batchnorm_forward(self: _BatchNorm, x: Tensor) -> Tensor:
    shape = self._param_shape(x.ndim)
    if self.training:
        mean = x.mean(axis=self._reduce_axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=self._reduce_axes, keepdims=True)
        m = self.momentum
        n = x.data.size / self.num_features
        unbiased = var.data.reshape(-1) * n / max(n - 1, 1)
        self._update_buffer(
            "running_mean", (1 - m) * self.running_mean + m * mean.data.reshape(-1)
        )
        self._update_buffer("running_var", (1 - m) * self.running_var + m * unbiased)
        normed = centered * (var + self.eps) ** -0.5
    else:
        centered = x - Tensor(self.running_mean.reshape(shape))
        inv_std = Tensor(1.0 / np.sqrt(self.running_var + self.eps).reshape(shape))
        normed = centered * inv_std
    return normed * self.gamma.reshape(*shape) + self.beta.reshape(*shape)


#: normwise bound on what the reassociation may move
BOUND = {np.float32: 1e-5, np.float64: 1e-12}


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference over the largest reference magnitude."""
    assert got.shape == want.shape and got.dtype == want.dtype
    scale = float(np.abs(want).max())
    return float(np.abs(got - want).max()) / (scale if scale > 0 else 1.0)


# ----------------------------------------------------------------------
# ``F.linear``, ``CrossEntropyLoss.__call__`` and ``NLLLoss.__call__`` as
# of the commit before the fused nodes, argument validation aside
# (``tests/nn/test_fused_head.py``).
# ----------------------------------------------------------------------


def composed_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def composed_nll(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    targets = np.asarray(targets)
    batch = np.arange(targets.shape[0])
    picked = log_probs[batch, targets]
    loss = -(picked.sum())
    if reduction == "mean":
        loss = loss * (1.0 / targets.shape[0])
    return loss


def composed_cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    return composed_nll(logits.log_softmax(axis=1), targets, reduction)
