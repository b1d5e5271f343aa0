"""Loss functions.

Each loss is a callable object mapping ``(logits_or_preds, targets)`` to a
scalar :class:`~repro.nn.tensor.Tensor`; targets are plain numpy arrays
(integer class labels for classification).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["CrossEntropyLoss", "MSELoss", "NLLLoss", "accuracy_from_logits"]


def _nll(x: Tensor, targets: np.ndarray, reduction: str, from_logits: bool) -> Tensor:
    """Negative log-likelihood of integer labels as one autograd node.

    ``x`` holds log-probabilities, or logits when ``from_logits`` (the
    stable log-softmax is then part of the node).  The node saves the
    log-probabilities and the labels; backward scatters the scaled upstream
    gradient onto the picked entries and, from logits, subtracts
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
    log_probs = x.data
    if from_logits:
        shifted = log_probs - log_probs.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    batch = np.arange(targets.shape[0])
    value = -(log_probs[batch, targets].sum())
    scale: np.ndarray | None = None
    if reduction == "mean":
        scale = np.asarray(1.0 / targets.shape[0]).astype(value.dtype)
        value = value * scale

    def _bw(grad: np.ndarray) -> None:
        full = np.zeros_like(log_probs)
        full[batch, targets] += -(grad if scale is None else grad * scale)
        if from_logits:
            full = full - np.exp(log_probs) * full.sum(axis=1, keepdims=True)
        x._accumulate(full, True)

    op = "cross_entropy" if from_logits else "nll"
    return Tensor._from_op(value, x.requires_grad, (x,), op, _bw)


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
        return _nll(logits, targets, self.reduction, from_logits=True)

    def __repr__(self) -> str:
        return f"CrossEntropyLoss(reduction={self.reduction!r})"


class NLLLoss:
    """Negative log-likelihood over pre-computed log-probabilities."""

    def __init__(self, reduction: str = "mean") -> None:
        if reduction not in ("mean", "sum"):
            raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
        self.reduction = reduction

    def __call__(self, log_probs: Tensor, targets: np.ndarray) -> Tensor:
        return _nll(log_probs, targets, self.reduction, from_logits=False)

    def __repr__(self) -> str:
        return f"NLLLoss(reduction={self.reduction!r})"


class MSELoss:
    """Mean squared error between predictions and targets."""

    def __init__(self, reduction: str = "mean") -> None:
        if reduction not in ("mean", "sum"):
            raise ValueError(f"reduction must be 'mean' or 'sum', got {reduction!r}")
        self.reduction = reduction

    def __call__(self, preds: Tensor, targets: np.ndarray) -> Tensor:
        diff = preds - Tensor(np.asarray(targets, dtype=preds.dtype))
        sq = diff * diff
        return sq.mean() if self.reduction == "mean" else sq.sum()

    def __repr__(self) -> str:
        return f"MSELoss(reduction={self.reduction!r})"


def accuracy_from_logits(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1] from raw logits."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    preds = data.argmax(axis=1)
    return float((preds == np.asarray(targets)).mean())
