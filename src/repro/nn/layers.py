"""Dense and utility layers: Linear, ReLU, Flatten.

Every layer implements :meth:`output_shape` (shape inference given an input
shape, batch dim excluded) and :meth:`flops` (multiply-accumulate cost per
sample) — both are consumed by the wireless latency model, which needs the
smashed-data payload size at the cut layer and the per-device compute load
on each side of the split.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

__all__ = ["Linear", "ReLU", "Flatten"]


class Layer(Module):
    """Base class adding shape/FLOP introspection to Module."""

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Per-sample output shape for a per-sample ``input_shape``."""
        raise NotImplementedError

    def flops(self, input_shape: tuple[int, ...]) -> int:
        """Approximate forward FLOPs for one sample (MACs counted as 2)."""
        raise NotImplementedError


class Linear(Layer):
    """Fully connected affine layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature counts must be positive, got ({in_features}, {out_features})"
            )
        rng = new_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        if input_shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expects {self.in_features} input features, got shape {input_shape}"
            )
        return input_shape[:-1] + (self.out_features,)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 2 * self.in_features * self.out_features

    def __repr__(self) -> str:
        return f"Linear(in={self.in_features}, out={self.out_features})"


class ReLU(Layer):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return int(np.prod(input_shape))

    def __repr__(self) -> str:
        return "ReLU()"


class Flatten(Layer):
    """Collapse all per-sample dimensions into one feature vector."""

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape(x.shape[0], -1)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        return 0

    def __repr__(self) -> str:
        return "Flatten()"
