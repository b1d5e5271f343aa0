"""Convolutional and pooling layers.

Inputs and outputs are ``(N, C, H, W)``, and what these layers produce —
activations and input gradients alike — is C-contiguous in that order (the
layout contract stated in :mod:`repro.nn.functional`).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.layers import Layer
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

__all__ = ["Conv2d", "MaxPool2d"]


class Conv2d(Layer):
    """2-D convolution with square kernels.

    Input/output layout is ``(N, C, H, W)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_channels <= 0 or out_channels <= 0:
            raise ValueError(
                f"channel counts must be positive, got ({in_channels}, {out_channels})"
            )
        if kernel_size <= 0 or stride <= 0 or padding < 0:
            raise ValueError(
                f"invalid geometry: kernel={kernel_size}, stride={stride}, padding={padding}"
            )
        rng = new_rng(seed)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), rng
            )
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"Conv2d expects {self.in_channels} channels, got {c}")
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        _, out_h, out_w = self.output_shape(input_shape)
        macs_per_pixel = self.in_channels * self.kernel_size**2
        return 2 * macs_per_pixel * self.out_channels * out_h * out_w

    def __repr__(self) -> str:
        return (
            f"Conv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )


class MaxPool2d(Layer):
    """Max pooling with square window."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        stride = kernel_size if stride is None else stride
        if kernel_size <= 0 or stride <= 0:
            raise ValueError(f"invalid geometry: kernel={kernel_size}, stride={stride}")
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, 0)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, out_h, out_w)

    def flops(self, input_shape: tuple[int, ...]) -> int:
        c, out_h, out_w = self.output_shape(input_shape)
        return c * out_h * out_w * self.kernel_size**2

    def __repr__(self) -> str:
        return f"MaxPool2d(k={self.kernel_size}, s={self.stride})"
