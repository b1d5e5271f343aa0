"""FedAvg-style aggregation over model state dicts.

The paper (§II-C): "AP aggregates all the server-side models and
client-side models into a new one respectively.  Model aggregation can be
conducted through FedAVG."  Aggregation is a weighted average of every
parameter *and buffer* (batch-norm running statistics average like
parameters, the standard FedAvg-BN treatment).

Implementation: :class:`StackedFedAvg` copies each state (flattened in
key order) into its row of one ``(M, K)`` matrix as it arrives (an anonymous
memory map, so unwritten rows take no memory), and :func:`fedavg` is a
single ``weights @ matrix`` BLAS call over it.  GSFL's and SplitFed's
sync round adds each unit's halves straight from the live split model as
the unit finishes, so it holds rows, not state dicts; :func:`fedavg` over
a list (PSL), :func:`weighted_delta` and :func:`mix_states` fill the same
matrix.  FL's sync round adds each trained state into one running
weighted sum instead (:class:`RunningFedAvg`), so it holds no matrix.
The two are
different orders of one sum of M terms: each lies within
``γₘ·Σᵢ|wᵢ·sᵢ|`` of the exact sum per entry (``γₘ = M·u/(1 − M·u)``,
``u`` half the dtype's eps), so they differ by at most twice that.
Aggregation keeps the states' dtype (a float32 model averages in
float32; no silent float64 upcast).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.nn.serialize import unpack_state

__all__ = ["RunningFedAvg", "StackedFedAvg", "fedavg", "weighted_delta", "mix_states"]

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


def _layout_of(state: StateDict) -> StateDict:
    """Zero-stride stand-ins for ``state``'s entries: the keys, shapes and
    dtypes ``unpack_state`` rebuilds an average by, without keeping the
    state's data alive."""
    return {
        key: np.broadcast_to(np.zeros((), np.asarray(v).dtype), np.shape(v))
        for key, v in state.items()
    }


def _pack_into(row: np.ndarray, state: StateDict, layout: StateDict, index: int) -> None:
    """Check ``state`` (the ``index``-th) against ``layout`` and flatten it
    into ``row``."""
    if list(state) != list(layout):
        raise ValueError(f"state {index} has mismatched keys")
    offset = 0
    for (key, like), value in zip(layout.items(), state.values()):
        value = np.asarray(value)
        if value.shape != like.shape:
            raise ValueError(
                f"state {index}: shape mismatch for key {key!r}: {value.shape} vs {like.shape}"
            )
        if value.dtype != like.dtype:
            raise ValueError(
                f"state {index}: dtype mismatch for key {key!r}: {value.dtype} vs {like.dtype}"
            )
        row[offset : offset + value.size] = value.reshape(-1)
        offset += value.size


def _empty_packed(layout: StateDict, *rows: int) -> np.ndarray:
    """Uninitialized ``(*rows, K)`` storage for states of ``layout``, in
    the promotion of their dtypes."""
    dtype = np.result_type(*layout.values()) if layout else np.float64
    return np.empty((*rows, sum(v.size for v in layout.values())), dtype)


def _mapped_rows(layout: StateDict, rows: int) -> np.ndarray:
    """:func:`_empty_packed` rows in an anonymous memory map.  A row takes
    memory only once it is written, and the matrix goes back to the
    system when it dies, so a matrix filled as units finish holds only
    the finished rows and leaves the heap their training uses alone."""
    import mmap  # on first use: ``import repro.cli`` loads no more modules

    like = _empty_packed(layout, 0)
    size = rows * like.shape[1]
    buffer = mmap.mmap(-1, max(size * like.itemsize, 1))
    return np.frombuffer(buffer, like.dtype, size).reshape(rows, like.shape[1])


class RunningFedAvg:
    """FedAvg of states that arrive one at a time, kept as one running sum.

    Built with the round's weights (validated and normalized once, cast to
    the states' dtype).  :meth:`add` packs a state into one scratch row,
    scales that row by its weight in place and adds it to the accumulator:
    ``acc = w₀·s₀``, then ``acc += wᵢ·sᵢ`` in arrival order, as separate
    numpy ufuncs (no BLAS).  Every state is checked for keys, shapes and
    dtypes against the first; :meth:`result` needs all of them.
    """

    def __init__(self, weights: "list[float] | np.ndarray") -> None:
        num_states = len(weights)
        if num_states == 0:
            raise ValueError("fedavg needs at least one state dict")
        self.num_states = num_states
        self._weights = _normalized_weights(weights, num_states)
        self._added = 0
        self._acc: np.ndarray | None = None
        self._row: np.ndarray | None = None

    def add(self, state: StateDict) -> None:
        """Add ``state``, scaled by its weight, to the running sum."""
        index = self._added
        if index == self.num_states:
            raise ValueError(f"all {self.num_states} states are already added")
        if self._acc is None:
            self._layout = _layout_of(state)
            self._acc = _empty_packed(self._layout)
            self._weights = self._weights.astype(self._acc.dtype, copy=False)
            _pack_into(self._acc, state, self._layout, index)
            np.multiply(self._acc, self._weights[0], out=self._acc)
        else:
            if self._row is None:
                self._row = np.empty_like(self._acc)
            _pack_into(self._row, state, self._layout, index)
            np.multiply(self._row, self._weights[index], out=self._row)
            np.add(self._acc, self._row, out=self._acc)
        self._added += 1

    def result(self) -> "OrderedDict[str, np.ndarray]":
        """The weighted average; its entries are views into the
        accumulator, which no further :meth:`add` may touch."""
        if self._added != self.num_states:
            raise ValueError(f"{self._added} of {self.num_states} states added")
        assert self._acc is not None
        return unpack_state(self._acc, self._layout, copy=False)


class StackedFedAvg:
    """FedAvg of ``num_states`` states, each checked against the first and
    copied into its row of one ``(M, K)`` matrix as it is added (so it may
    be live arrays about to be overwritten), averaged by one GEMV."""

    def __init__(self, num_states: int) -> None:
        self.num_states, self._added = num_states, 0

    def add(self, state: StateDict) -> None:
        """Check ``state`` against the first and copy it into the next row."""
        index = self._added
        if index == self.num_states:
            raise ValueError(f"state {index}: all {self.num_states} states are already added")
        if index == 0:
            self._layout = _layout_of(state)
            self._matrix = _mapped_rows(self._layout, self.num_states)
        _pack_into(self._matrix[index], state, self._layout, index)
        self._added += 1

    def _rows(self) -> np.ndarray:
        if not self.num_states:
            raise ValueError("fedavg needs at least one state dict")
        if self._added < self.num_states:
            raise ValueError(f"state {self._added} of {self.num_states} is missing")
        return self._matrix

    def state(self, index: int) -> "OrderedDict[str, np.ndarray]":
        """State ``index`` as views into its row."""
        return unpack_state(self._rows()[index], self._layout, copy=False)

    def average(self, weights: "list[float] | np.ndarray | None" = None) -> np.ndarray:
        """``weights @ matrix``, the weights normalized and cast to its dtype."""
        matrix = self._rows()
        weights = _normalized_weights(weights, self.num_states)
        return weights.astype(matrix.dtype, copy=False) @ matrix


def _stacked(states: list[StateDict]) -> StackedFedAvg:
    stacked = StackedFedAvg(len(states))
    for state in states:
        stacked.add(state)
    return stacked


def fedavg(
    states: "list[StateDict] | StackedFedAvg",
    weights: list[float] | np.ndarray | None = None,
) -> "OrderedDict[str, np.ndarray]":
    """Weighted average of state dicts (weights normalized internally):
    a list of them, or the rows of a filled :class:`StackedFedAvg`.

    Weights are typically per-participant sample counts.  All states must
    share identical keys, shapes and dtypes.
    """
    stacked = states if isinstance(states, StackedFedAvg) else _stacked(states)
    # The averaged vector is freshly allocated, so the per-key entries can
    # be views into it — no re-copy.
    return unpack_state(stacked.average(weights), stacked._layout, copy=False)


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
    stacked = _stacked(states)
    avg_vec, layout = stacked.average(weights), stacked._layout
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
