"""Parameter serialization and payload-size accounting.

The wireless latency model charges every transmission by its payload size
in bits: full client-side models (FL upload / SL relay), smashed-data
activations and their gradients (SL/GSFL per-batch exchange).  This module
is the single source of truth for those sizes.

``pack_state``/``unpack_state`` flatten a state dict into one contiguous
float vector — used by FedAvg aggregation and by tests asserting
aggregation linearity.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.nn.module import Module

__all__ = [
    "state_num_scalars",
    "state_nbytes",
    "state_nbits",
    "model_nbytes",
    "activation_nbytes",
    "pack_state",
    "unpack_state",
    "clone_state",
    "states_allclose",
]

#: bytes per scalar on the wire; the paper's setting transmits float32
WIRE_BYTES_PER_SCALAR = 4


def state_num_scalars(state: dict[str, np.ndarray]) -> int:
    """Total number of scalars in a state dict."""
    return int(sum(np.asarray(v).size for v in state.values()))


def state_nbytes(state: dict[str, np.ndarray], bytes_per_scalar: int = WIRE_BYTES_PER_SCALAR) -> int:
    """Wire size of a state dict in bytes."""
    return state_num_scalars(state) * bytes_per_scalar


def state_nbits(state: dict[str, np.ndarray], bytes_per_scalar: int = WIRE_BYTES_PER_SCALAR) -> int:
    """Wire size of a state dict in bits."""
    return 8 * state_nbytes(state, bytes_per_scalar)


def model_nbytes(model: Module, bytes_per_scalar: int = WIRE_BYTES_PER_SCALAR) -> int:
    """Wire size of a model's full state (params + buffers) in bytes."""
    return state_nbytes(model.state_dict(), bytes_per_scalar)


def activation_nbytes(
    shape: tuple[int, ...], batch_size: int, bytes_per_scalar: int = WIRE_BYTES_PER_SCALAR
) -> int:
    """Wire size of one batch of activations (or activation gradients).

    ``shape`` is the per-sample shape at the cut layer.
    """
    per_sample = int(np.prod(shape))
    return per_sample * batch_size * bytes_per_scalar


def pack_state(state: dict[str, np.ndarray]) -> np.ndarray:
    """Flatten a state dict into one flat vector (key order preserved).

    The vector's dtype is the numpy promotion of the entries' dtypes — a
    uniformly float32 state packs to float32 (no silent float64 upcast).
    """
    if not state:
        return np.zeros(0)
    return np.concatenate([np.asarray(v).reshape(-1) for v in state.values()])


def unpack_state(
    vector: np.ndarray, template: dict[str, np.ndarray], copy: bool = True
) -> "OrderedDict[str, np.ndarray]":
    """Inverse of :func:`pack_state` given a template with target shapes.

    Each output entry is cast back to the template entry's dtype.  With
    ``copy=False`` entries may be views into ``vector`` (safe when the
    caller owns ``vector`` and will not mutate it — e.g. a freshly
    computed aggregation result).
    """
    vector = np.asarray(vector)
    expected = state_num_scalars(template)
    if vector.size != expected:
        raise ValueError(f"vector has {vector.size} scalars, template needs {expected}")
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    offset = 0
    for key, value in template.items():
        arr = np.asarray(value)
        chunk = vector[offset : offset + arr.size].reshape(arr.shape)
        if chunk.dtype != arr.dtype:
            chunk = chunk.astype(arr.dtype)
        elif copy:
            chunk = chunk.copy()
        out[key] = chunk
        offset += arr.size
    return out


def clone_state(state: dict[str, np.ndarray]) -> "OrderedDict[str, np.ndarray]":
    """Deep-copy a state dict."""
    return OrderedDict((k, np.array(v, copy=True)) for k, v in state.items())


def states_allclose(
    a: dict[str, np.ndarray], b: dict[str, np.ndarray], atol: float = 1e-10
) -> bool:
    """True when two state dicts have identical keys and close values."""
    if set(a) != set(b):
        return False
    return all(np.allclose(a[k], b[k], atol=atol) for k in a)
