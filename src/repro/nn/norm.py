"""Batch-normalization layers with running statistics.

Running mean/var are registered buffers, so they travel with
``state_dict`` during split-model relay and FedAvg aggregation — in GSFL
the batch-norm state of the client-side model must follow the model as it
hops between clients, and the server aggregates it like any other state.

In training mode the layer is one autograd node.  Forward: batch mean,
centre, variance by one ``einsum`` over the centred values, scale and shift;
it saves the normalised input ``x_hat`` and ``gamma / std`` and nothing
else.  Backward computes, from those two and the C-contiguous gradient it is
handed, ``dx = gamma/std * (g - mean(g) - x_hat * mean(g * x_hat))`` in place
on one buffer.  In eval mode the statistics are constants and the layer is a
per-channel scale and shift: the two per-channel vectors are composed from
ordinary tensor ops, their application to the input is one node.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers import Layer
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, unbroadcast

__all__ = ["BatchNorm1d", "BatchNorm2d"]


def _scale_shift(x: Tensor, scale: Tensor, shift: Tensor) -> Tensor:
    """``x * scale + shift`` as one node: the shift is added in place, which
    spares evaluation an activation-sized temporary per layer; gradients are
    those of the two-node expression."""
    out_data = x.data * scale.data
    out_data += shift.data

    def _bw(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(unbroadcast(grad * scale.data, x.shape), True)
        if scale.requires_grad:
            scale._accumulate(unbroadcast(grad * x.data, scale.shape), True)
        if shift.requires_grad:
            shift._accumulate(unbroadcast(grad, shift.shape))

    requires = x.requires_grad or scale.requires_grad or shift.requires_grad
    return Tensor._from_op(out_data, requires, (x, scale, shift), "scale_shift", _bw)


class _BatchNorm(Layer):
    """Shared machinery for 1-D and 2-D batch norm."""

    #: axes to reduce over, and the ``einsum`` that reduces a product of two
    #: inputs over them in one pass; subclasses set these
    _reduce_axes: tuple[int, ...]
    _channel_dot: str

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _param_shape(self, ndim: int) -> tuple[int, ...]:
        """Shape to broadcast per-channel params against the input."""
        shape = [1] * ndim
        shape[1] = self.num_features
        return tuple(shape)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim < 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected channel dim {self.num_features} at axis 1, got shape {x.shape}"
            )
        shape = self._param_shape(x.ndim)
        gamma, beta = self.gamma, self.beta
        if not self.training:
            # Constant statistics: one per-channel scale and shift.
            scale = gamma.reshape(*shape) * Tensor(
                1.0 / np.sqrt(self.running_var + self.eps).reshape(shape)
            )
            shift = beta.reshape(*shape) - Tensor(self.running_mean.reshape(shape)) * scale
            return _scale_shift(x, scale, shift)

        axes, channel_dot = self._reduce_axes, self._channel_dot
        n = x.data.size / self.num_features
        mean = x.data.sum(axis=axes, keepdims=True) / n
        x_hat = x.data - mean
        var = np.einsum(channel_dot, x_hat, x_hat) / n
        m = self.momentum
        unbiased = var * n / max(n - 1, 1)
        self._update_buffer(
            "running_mean", (1 - m) * self.running_mean + m * mean.reshape(-1)
        )
        self._update_buffer("running_var", (1 - m) * self.running_var + m * unbiased)
        inv_std = ((var + self.eps) ** -0.5).reshape(shape)
        x_hat *= inv_std
        scale = gamma.data.reshape(shape)
        out_data = x_hat * scale
        out_data += beta.data.reshape(shape)
        dx_scale = scale * inv_std

        def _bw(grad: np.ndarray) -> None:
            dbeta = grad.sum(axis=axes)
            dgamma = np.einsum(channel_dot, grad, x_hat)
            if x.requires_grad:
                # dx = dx_scale * (grad - mean(grad) - x_hat * mean(grad * x_hat))
                dx = x_hat * (dgamma / n).reshape(shape)
                dx += (dbeta / n).reshape(shape)
                np.subtract(grad, dx, out=dx)
                dx *= dx_scale
                x._accumulate(dx, True)
            gamma._accumulate(dgamma, True)
            beta._accumulate(dbeta, True)

        return Tensor._from_op(out_data, True, (x, gamma, beta), "batch_norm", _bw)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 4 * int(np.prod(input_shape))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(features={self.num_features})"


class BatchNorm1d(_BatchNorm):
    """Batch norm over feature vectors ``(N, C)``."""

    _reduce_axes = (0,)
    _channel_dot = "nc,nc->c"


class BatchNorm2d(_BatchNorm):
    """Batch norm over images ``(N, C, H, W)``."""

    _reduce_axes = (0, 2, 3)
    _channel_dot = "nchw,nchw->c"
