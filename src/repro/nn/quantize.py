"""Uniform affine quantization for over-the-air payload compression.

An extension beyond the paper: split learning's per-batch smashed-data
exchange is the dominant traffic in SL/GSFL, and quantizing activations
(and the returned gradients) to ``k`` bits cuts that payload ``32/k``-fold
at a small accuracy cost.  The schemes apply it symmetrically — what the
"wire" carries is ``dequantize(quantize(x))``, so training genuinely sees
the quantization error.

Implements standard uniform affine (asymmetric) quantization::

    q   = clip(round(x / scale) + zero_point, 0, 2^k - 1)
    x'  = (q - zero_point) * scale

with per-tensor scale/zero-point from the observed min/max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizedArray", "quantize_uniform", "dequantize", "simulate_wire"]


@dataclass(frozen=True)
class QuantizedArray:
    """A quantized payload plus the metadata needed to reconstruct it.

    ``constant=True`` marks a degenerate constant tensor whose value is
    carried in ``scale`` (an explicit flag — a sentinel ``zero_point``
    would collide with legitimately negative zero points, e.g.
    ``[1.0, 12.0]`` at 4 bits rounds to zero point -1).
    """

    codes: np.ndarray  # unsigned integer codes
    scale: float
    zero_point: int
    num_bits: int
    shape: tuple[int, ...]
    constant: bool = False

    #: wire overhead of the two per-tensor parameters (scale, zero_point),
    #: 8 bytes each
    PARAMS_BYTES = 16

    @property
    def payload_bytes(self) -> int:
        """Wire size: packed codes plus the two 8-byte parameters.

        Constant and empty tensors carry no codes at all — their value
        (if any) lives entirely in the parameters, so only the parameter
        overhead hits the wire.
        """
        if self.constant or self.codes.size == 0:
            return self.PARAMS_BYTES
        return int(np.ceil(self.codes.size * self.num_bits / 8)) + self.PARAMS_BYTES

    def __post_init__(self) -> None:
        if not 1 <= self.num_bits <= 16:
            raise ValueError(f"num_bits must be in [1, 16], got {self.num_bits}")


def quantize_uniform(x: np.ndarray, num_bits: int = 8) -> QuantizedArray:
    """Quantize ``x`` to ``num_bits`` with per-tensor affine parameters."""
    if not 1 <= num_bits <= 16:
        raise ValueError(f"num_bits must be in [1, 16], got {num_bits}")
    x = np.asarray(x, dtype=np.float64)
    levels = (1 << num_bits) - 1
    if x.size == 0:
        return QuantizedArray(
            codes=np.zeros(0, dtype=np.uint16),
            scale=1.0,
            zero_point=0,
            num_bits=num_bits,
            shape=x.shape,
        )
    if not np.isfinite(x).all():
        raise ValueError(
            "quantize_uniform: input contains non-finite values (NaN/inf); "
            "refusing to emit undefined wire codes"
        )
    lo, hi = float(x.min()), float(x.max())
    scale = (hi - lo) / levels
    if scale == 0.0:
        # Constant tensor, or a subnormal span whose step underflows: encode
        # the constant in ``scale`` (dequantize returns full(scale)).
        return QuantizedArray(
            codes=np.zeros(x.shape, dtype=np.uint16),
            scale=lo,
            zero_point=0,
            num_bits=num_bits,
            shape=x.shape,
            constant=True,
        )
    zero_point = int(np.round(-lo / scale))
    codes = np.clip(np.round(x / scale) + zero_point, 0, levels).astype(np.uint16)
    return QuantizedArray(
        codes=codes, scale=scale, zero_point=zero_point, num_bits=num_bits, shape=x.shape
    )


def dequantize(q: QuantizedArray) -> np.ndarray:
    """Reconstruct the float array from a :class:`QuantizedArray`."""
    if q.codes.size == 0:
        return np.zeros(q.shape)
    if q.constant:
        return np.full(q.shape, q.scale)
    return ((q.codes.astype(np.float64) - q.zero_point) * q.scale).reshape(q.shape)


def simulate_wire(x: np.ndarray, num_bits: int | None) -> np.ndarray:
    """Round-trip ``x`` through the wire at ``num_bits`` (None = lossless).

    This is what the schemes call: the receiver sees exactly what
    quantization preserved.  The result keeps the input's dtype (the
    quantization grid itself is computed in float64 for precision).
    """
    x = np.asarray(x)
    if num_bits is None:
        return x
    return dequantize(quantize_uniform(x, num_bits)).astype(x.dtype, copy=False)
