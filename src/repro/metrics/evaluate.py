"""Model evaluation helpers (loss/accuracy over a dataset, no-grad).

Evaluation walks the dataset in slabs of ``batch_size`` samples
(:data:`EVAL_SLAB`, 16 — the paper's training batch — by default) and
holds one slab's activations at a time: under ``no_grad`` nothing
outlives the slab's logits, so the slab — not the dataset — bounds
evaluation's memory.  DeepThin's largest patch matrix is 56 KiB per 20x20
sample in float32: 0.9 MiB at 16 samples, where 64 asked the allocator
for 3.5 MiB at once and 256 for 14.1 MiB.  At the training batch,
evaluation's transient working set is no larger than a training step's.
Accuracy does not depend on the slab size; the summed loss does only in
its last digits.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro import nn
from repro.data.dataset import DataLoader, Dataset
from repro.nn.tensor import Tensor, no_grad

__all__ = ["evaluate_model", "evaluate_split", "EVAL_SLAB"]

#: samples evaluated at a time unless the caller says otherwise
EVAL_SLAB = 16


@contextmanager
def _eval_mode(*roots: nn.Module) -> Iterator[None]:
    """Run the block with every module under ``roots`` in eval mode, then
    put each module's *own* flag back — also when the block raises.

    ``root.train(was_training)`` would not do: it sets every submodule to
    the root's flag, un-freezing a BatchNorm held in ``eval()`` on purpose.
    """
    saved = [(module, module.training) for root in roots for module in root.modules()]
    for root in roots:
        root.eval()
    try:
        yield
    finally:
        for module, training in saved:
            object.__setattr__(module, "training", training)  # as ``Module.train`` sets it


def evaluate_model(
    model: nn.Module,
    dataset: Dataset,
    batch_size: int = EVAL_SLAB,
    loss_fn: object | None = None,
) -> tuple[float, float]:
    """Return ``(mean_loss, accuracy)`` of ``model`` over ``dataset``.

    Runs in eval mode under ``no_grad`` and restores every module's
    previous mode.
    """
    loss_fn = loss_fn or nn.CrossEntropyLoss(reduction="sum")
    total_loss = 0.0
    correct = 0
    count = 0
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with _eval_mode(model), no_grad():
        for xb, yb in loader:
            logits = model(Tensor(xb))
            total_loss += float(loss_fn(logits, yb).item())
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            count += len(yb)
    if count == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return total_loss / count, correct / count


def evaluate_split(
    split: "nn.SplitModel",
    dataset: Dataset,
    batch_size: int = EVAL_SLAB,
) -> tuple[float, float]:
    """Evaluate a split model end-to-end (client half → server half).

    Runs in eval mode under ``no_grad`` and restores every module's
    previous mode.
    """
    loss_fn = nn.CrossEntropyLoss(reduction="sum")
    total_loss = 0.0
    correct = 0
    count = 0
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with _eval_mode(split.client, split.server), no_grad():
        for xb, yb in loader:
            logits = split.full_forward(xb)
            total_loss += float(loss_fn(logits, yb).item())
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            count += len(yb)
    if count == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return total_loss / count, correct / count
