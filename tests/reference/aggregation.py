"""FedAvg's frozen references.

``frozen_gemv`` is ``fedavg`` before the row packer; ``StackedFedAvg`` is
held to it byte for byte (``tests/core/test_aggregation.py``).
``running_sum_reference`` is the running sum FL's sync round adds each
trained model into; ``RunningFedAvg`` is held to it byte for byte, and
``fedavg`` to within ``summation_bound`` of it
(``tests/schemes/test_round_working_set.py`` too).  ``pack_state`` is
the flat row they all read: the inverse of ``repro.nn.serialize.unpack_state``.
"""

from __future__ import annotations

import numpy as np


def pack_state(state):
    """Flatten a state dict into one vector in key order; its dtype is the
    numpy promotion of the entries' (a float32 state packs to float32)."""
    if not state:
        return np.zeros(0)
    return np.concatenate([np.asarray(v).reshape(-1) for v in state.values()])


def frozen_gemv(states, weights):
    """``fedavg`` before the row packer, frozen: the packed states stacked
    into one matrix, times the weights normalized in float64 and cast to
    its dtype."""
    matrix = np.stack([pack_state(s) for s in states])
    weights = np.asarray(weights, dtype=np.float64)
    return (weights / weights.sum()).astype(matrix.dtype, copy=False) @ matrix


def running_sum_reference(states, weights):
    """The running FedAvg sum, frozen: ``acc = w₀·s₀``, then
    ``acc = acc + wᵢ·sᵢ`` in list order over the packed rows, with the
    weights normalized in float64 and cast to the states' dtype."""
    rows = [pack_state(s) for s in states]
    w = (np.asarray(weights, dtype=np.float64) / np.sum(weights)).astype(rows[0].dtype)
    acc = w[0] * rows[0]
    for wi, row in zip(w[1:], rows[1:]):
        acc = acc + wi * row
    return acc


def summation_bound(states, weights):
    """``2·γₙ·Σᵢ|wᵢ·sᵢ|`` per entry, ``γₙ = n·u/(1 − n·u)``, ``u`` half
    the dtype's eps: each of two orders of the same n-term sum lies within
    ``γₙ·Σᵢ|wᵢ·sᵢ|`` of the exact one, so the two lie within twice that."""
    rows = [pack_state(s) for s in states]
    dtype = rows[0].dtype
    w = (np.asarray(weights, dtype=np.float64) / np.sum(weights)).astype(dtype)
    n, u = len(rows), np.finfo(dtype).eps / 2
    gamma = n * u / (1 - n * u)
    magnitude = sum(
        np.abs(wi.astype(np.float64) * row.astype(np.float64)) for wi, row in zip(w, rows)
    )
    return 2 * gamma * magnitude
