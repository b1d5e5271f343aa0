"""Additional layers: alternative activations, LayerNorm, global pooling.

These extend the core zoo for architecture ablations (e.g. BN-free
models, GELU variants) without touching the layers the paper's
experiments depend on.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.layers import Layer
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor

__all__ = ["LeakyReLU", "GELU", "Softmax", "LayerNorm", "GlobalAvgPool2d"]


class LeakyReLU(Layer):
    """ReLU with a small negative-side slope."""

    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        if negative_slope < 0:
            raise ValueError(f"negative_slope must be >= 0, got {negative_slope}")
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        mask = x.data > 0
        slope = self.negative_slope

        def _bw(grad: np.ndarray) -> None:
            x._accumulate(grad * np.where(mask, 1.0, slope), True)

        out_data = np.where(mask, x.data, slope * x.data)
        return Tensor._from_op(out_data, x.requires_grad, (x,), "leaky_relu", _bw)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape))

    def __repr__(self) -> str:
        return f"LeakyReLU(slope={self.negative_slope})"


class GELU(Layer):
    """Gaussian error linear unit (tanh approximation)."""

    _C = float(np.sqrt(2.0 / np.pi))

    def forward(self, x: Tensor) -> Tensor:
        inner = self._C * (x + 0.044715 * x * x * x)
        return x * 0.5 * (inner.tanh() + 1.0)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 8 * int(np.prod(input_shape))

    def __repr__(self) -> str:
        return "GELU()"


class Softmax(Layer):
    """Softmax along the last axis (for probability heads)."""

    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return x.softmax(axis=self.axis)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 5 * int(np.prod(input_shape))

    def __repr__(self) -> str:
        return f"Softmax(axis={self.axis})"


class LayerNorm(Layer):
    """Layer normalization over the trailing feature axis.

    Unlike batch norm it carries no running statistics, so nothing extra
    travels with relayed client-side models — a relevant alternative for
    split learning deployments.
    """

    def __init__(self, num_features: int, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(init.zeros((num_features,)))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"expected trailing dim {self.num_features}, got shape {x.shape}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 6 * int(np.prod(input_shape))

    def __repr__(self) -> str:
        return f"LayerNorm(features={self.num_features})"


class GlobalAvgPool2d(Layer):
    """Average over all spatial positions: ``(N, C, H, W) -> (N, C)``."""

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {x.shape}")
        return x.mean(axis=(2, 3))

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        return (c,)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape))

    def __repr__(self) -> str:
        return "GlobalAvgPool2d()"
