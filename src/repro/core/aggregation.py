"""FedAvg-style aggregation over model state dicts.

The paper (§II-C): "AP aggregates all the server-side models and
client-side models into a new one respectively.  Model aggregation can be
conducted through FedAVG."  Aggregation is a weighted average of every
parameter *and buffer* (batch-norm running statistics average like
parameters, the standard FedAvg-BN treatment).

Implementation: every state dict is flattened (``pack_state`` layout)
straight into its row of one ``(M, K)`` matrix, and the whole average
collapses to a single ``weights @ matrix`` BLAS call — instead of the
per-key Python loop the original implementation used; the result is
rebuilt with :func:`~repro.nn.serialize.unpack_state`.  FL's sync round,
which trains client after client, packs each trained state into its row
as soon as it exists (:class:`StackedStates`) and hands :func:`fedavg`
the filled matrix, so it never holds a list of M state dicts.
Aggregation keeps the states' dtype (a float32 model averages in
float32; no silent float64 upcast).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.nn.serialize import unpack_state

__all__ = ["fedavg", "uniform_average", "weighted_delta", "mix_states"]

StateDict = dict[str, np.ndarray]


def _normalized_weights(
    weights: "list[float] | np.ndarray | None", num_states: int
) -> np.ndarray:
    if weights is None:
        weights = np.ones(num_states)
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != num_states:
        raise ValueError(f"{len(weights)} weights for {num_states} states")
    # NaN and inf pass the sign test and make every averaged entry NaN.
    if not np.isfinite(weights.sum()):
        raise ValueError(f"weights must be finite with a finite sum, got {weights}")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("weights must be non-negative with positive sum")
    return weights / weights.sum()


class StackedStates:
    """``num_states`` state dicts packed one per row into FedAvg's
    ``(M, K)`` matrix, for a caller that produces them one at a time.

    :meth:`append` flattens a state straight into the next row of one
    preallocated matrix, checking its keys and shapes against the first
    state's; :func:`fedavg` takes the filled object in place of a list.
    """

    def __init__(self, num_states: int) -> None:
        if num_states <= 0:
            raise ValueError("fedavg needs at least one state dict")
        self.num_states = num_states
        self._rows = 0
        self._matrix: np.ndarray | None = None

    def append(self, state: StateDict) -> None:
        """Pack ``state`` into the next row."""
        row = self._rows
        if row == self.num_states:
            raise ValueError(f"all {self.num_states} rows are already packed")
        matrix = self._matrix
        if matrix is None:
            template = [np.asarray(v) for v in state.values()]
            # Zero-stride stand-ins: the keys, shapes and dtypes
            # ``unpack_state`` rebuilds the average by, without keeping
            # the first state's data alive.
            self._layout = {
                key: np.broadcast_to(np.zeros((), v.dtype), v.shape)
                for key, v in zip(state, template)
            }
            matrix = self._matrix = np.empty(
                (self.num_states, sum(v.size for v in template)),
                dtype=np.result_type(*template) if template else np.float64,
            )
        elif list(state) != list(self._layout):
            raise ValueError(f"state {row} has mismatched keys")
        offset = 0
        for (key, like), value in zip(self._layout.items(), state.values()):
            value = np.asarray(value)
            if value.shape != like.shape:
                raise ValueError(
                    f"shape mismatch for key {key!r}: {value.shape} vs {like.shape}"
                )
            matrix[row, offset : offset + value.size] = value.reshape(-1)
            offset += value.size
        self._rows += 1

    def packed(self) -> tuple[np.ndarray, StateDict]:
        """The filled matrix and the layout to unpack a row-vector by."""
        if self._rows != self.num_states:
            raise ValueError(f"{self._rows} of {self.num_states} states packed")
        assert self._matrix is not None
        return self._matrix, self._layout


def _stack_states(states: list[StateDict]) -> StackedStates:
    """Validate key/shape agreement and pack states into an (M, K) matrix."""
    stacked = StackedStates(len(states))
    for state in states:
        stacked.append(state)
    return stacked


def fedavg(
    states: "list[StateDict] | StackedStates",
    weights: list[float] | np.ndarray | None = None,
) -> "OrderedDict[str, np.ndarray]":
    """Weighted average of state dicts (weights normalized internally).

    Weights are typically per-participant sample counts.  All states must
    share identical keys and shapes.  ``states`` is a list, or the states
    already packed row by row into a :class:`StackedStates`.
    """
    stacked = states if isinstance(states, StackedStates) else _stack_states(states)
    matrix, layout = stacked.packed()
    weights = _normalized_weights(weights, stacked.num_states).astype(matrix.dtype, copy=False)
    # The averaged vector is freshly allocated, so the per-key entries can
    # be views into it — no re-copy.
    return unpack_state(weights @ matrix, layout, copy=False)


def uniform_average(states: list[StateDict]) -> "OrderedDict[str, np.ndarray]":
    """Unweighted FedAvg."""
    return fedavg(states, weights=None)


def weighted_delta(
    base: StateDict,
    states: list[StateDict],
    weights: list[float] | np.ndarray | None = None,
    server_lr: float = 1.0,
) -> "OrderedDict[str, np.ndarray]":
    """FedOpt-style update: ``base + server_lr * (fedavg(states) - base)``.

    With ``server_lr=1`` this equals plain FedAvg; other values implement
    server-side damping/acceleration (an extension beyond the paper, used
    in ablations).
    """
    stacked = _stack_states(states)
    matrix, layout = stacked.packed()
    weights = _normalized_weights(weights, stacked.num_states).astype(matrix.dtype, copy=False)
    avg_vec = weights @ matrix
    # Flatten ``base`` in the states' key order (KeyError on missing keys).
    base_vec = np.concatenate(
        [np.asarray(base[key]).reshape(-1) for key in layout]
    ).astype(avg_vec.dtype, copy=False)
    if base_vec.size != avg_vec.size:
        raise ValueError(
            f"base has {base_vec.size} scalars, states have {avg_vec.size}"
        )
    lr = avg_vec.dtype.type(server_lr)
    return unpack_state(base_vec + lr * (avg_vec - base_vec), layout, copy=False)


def mix_states(
    base: StateDict,
    update: StateDict,
    alpha: float,
) -> "OrderedDict[str, np.ndarray]":
    """Asynchronous single-update merge: ``base + alpha * (update - base)``.

    The FedAsync mixing step applied by the DES-resident aggregation
    server on every barrier-free commit; ``alpha`` is the unit's
    normalized sample weight damped by the staleness policy.  A
    single-state :func:`weighted_delta` (same packed-BLAS path, same
    dtype preservation and fresh allocation) with the mixing coefficient
    range-checked.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing coefficient must be in [0, 1], got {alpha}")
    if base.keys() != update.keys():
        raise ValueError("base and update states have mismatched keys")
    return weighted_delta(base, [update], server_lr=alpha)
