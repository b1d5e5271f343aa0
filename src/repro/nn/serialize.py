"""Flat-vector views of state dicts and the wire's scalar size.

:func:`unpack_state` rebuilds a state dict from one flat vector laid out
in key order, each entry flattened — how FedAvg hands back its averaged
row (:mod:`repro.core.aggregation`).  Payload sizes are priced from
:data:`WIRE_BYTES_PER_SCALAR` by :class:`~repro.nn.profile.ModelProfile`
and the transport codecs.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["WIRE_BYTES_PER_SCALAR", "state_num_scalars", "unpack_state"]

#: bytes per scalar on the wire; the paper's setting transmits float32
WIRE_BYTES_PER_SCALAR = 4


def state_num_scalars(state: dict[str, np.ndarray]) -> int:
    """Total number of scalars in a state dict."""
    return int(sum(np.asarray(v).size for v in state.values()))


def unpack_state(
    vector: np.ndarray, template: dict[str, np.ndarray], copy: bool = True
) -> "OrderedDict[str, np.ndarray]":
    """Split a flat vector (key order, each entry flattened) into a state
    dict shaped like ``template``.

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
