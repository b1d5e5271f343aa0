"""Weight-initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so model
construction is deterministic under a fixed seed — a hard requirement for
comparing training schemes from identical starting weights (the paper's
Fig. 2 compares CL/SL/FL/GSFL from a common initial model).
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import get_default_dtype

__all__ = ["kaiming_uniform", "zeros", "fan_in_and_fan_out"]


def fan_in_and_fan_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight tensor.

    For conv weights ``(C_out, C_in, kH, kW)`` the receptive-field size
    multiplies the channel counts, matching the standard definition.
    """
    if len(shape) < 2:
        raise ValueError(f"fan in/out undefined for shape {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = np.sqrt(2.0)
) -> np.ndarray:
    """He/Kaiming uniform init (suited to ReLU networks)."""
    fan_in, _ = fan_in_and_fan_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    # Draw in float64 (the generator's native precision, so streams are
    # identical across compute dtypes), then cast to the configured dtype.
    return rng.uniform(-bound, bound, size=shape).astype(get_default_dtype(), copy=False)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero init (biases)."""
    return np.zeros(shape, dtype=get_default_dtype())
