"""The classification loss.

:class:`CrossEntropyLoss` maps ``(logits, targets)`` to a scalar
:class:`~repro.nn.tensor.Tensor`; targets are plain numpy arrays of
integer class labels.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Node, Tensor

__all__ = ["CrossEntropyLoss"]


def _cross_entropy(x: Tensor, targets: np.ndarray, reduction: str) -> Tensor:
    """Softmax cross-entropy of integer labels over logits ``x`` as one
    autograd node, the stable log-softmax included.

    The node saves the log-probabilities and the labels; backward scatters
    the scaled upstream gradient onto the picked entries and subtracts
    ``softmax * rowsum`` — the numpy expressions, in order, of a
    ``log_softmax`` → ``getitem`` → ``sum`` → ``neg`` → ``mul`` chain
    (``tests/nn/test_fused_head.py`` keeps that chain as the reference).
    """
    targets = np.asarray(targets)
    if targets.ndim != 1 or targets.dtype.kind not in "iu":
        raise ValueError(
            f"targets must be 1-D integer class labels, got shape {targets.shape} "
            f"of dtype {targets.dtype}"
        )
    if x.ndim != 2 or x.shape[0] != targets.shape[0]:
        raise ValueError(f"input shape {x.shape} incompatible with targets {targets.shape}")
    if targets.size == 0:
        raise ValueError("cannot take a loss over an empty batch")
    if targets.min() < 0 or targets.max() >= x.shape[1]:
        raise ValueError(
            f"target labels out of range [0, {x.shape[1]}): "
            f"[{targets.min()}, {targets.max()}]"
        )
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    batch = np.arange(targets.shape[0])
    value = -(log_probs[batch, targets].sum())
    scale: np.ndarray | None = None
    if reduction == "mean":
        scale = np.asarray(1.0 / targets.shape[0]).astype(value.dtype)
        value = value * scale

    def _bw(grad: np.ndarray, to_x: Node) -> None:
        full = np.zeros_like(log_probs)
        full[batch, targets] += -(grad if scale is None else grad * scale)
        full = full - np.exp(log_probs) * full.sum(axis=1, keepdims=True)
        to_x._accumulate(full, True)

    return Tensor._from_op(value, (x,), "cross_entropy", _bw)


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels.

    Combines log-softmax and NLL in one numerically stable op, exactly like
    ``torch.nn.CrossEntropyLoss``.

    Parameters
    ----------
    reduction:
        ``"mean"`` (default) or ``"sum"`` over the batch.
    """

    def __init__(self, reduction: str = "mean") -> None:
        if reduction not in ("mean", "sum"):
            raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
        self.reduction = reduction

    def __call__(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return _cross_entropy(logits, targets, self.reduction)
