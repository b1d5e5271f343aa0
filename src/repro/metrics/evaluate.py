"""Model evaluation helpers (loss/accuracy over a dataset, no-grad)."""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.dataset import DataLoader, Dataset
from repro.nn.tensor import Tensor, no_grad

__all__ = ["evaluate_model", "evaluate_split", "predict_labels"]


def evaluate_model(
    model: nn.Module,
    dataset: Dataset,
    batch_size: int = 256,
    loss_fn: object | None = None,
) -> tuple[float, float]:
    """Return ``(mean_loss, accuracy)`` of ``model`` over ``dataset``.

    Runs in eval mode under ``no_grad`` and restores the previous mode.
    """
    loss_fn = loss_fn or nn.CrossEntropyLoss(reduction="sum")
    was_training = model.training
    model.eval()
    total_loss = 0.0
    correct = 0
    count = 0
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with no_grad():
        for xb, yb in loader:
            logits = model(Tensor(xb))
            total_loss += float(loss_fn(logits, yb).item())
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            count += len(yb)
    if was_training:
        model.train()
    if count == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return total_loss / count, correct / count


def evaluate_split(
    split: "nn.SplitModel",
    dataset: Dataset,
    batch_size: int = 256,
) -> tuple[float, float]:
    """Evaluate a split model end-to-end (client half → server half).

    Runs in eval mode under ``no_grad`` and restores each half's previous
    mode.
    """
    loss_fn = nn.CrossEntropyLoss(reduction="sum")
    client_was_training = split.client.training
    server_was_training = split.server.training
    split.eval()
    total_loss = 0.0
    correct = 0
    count = 0
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    with no_grad():
        for xb, yb in loader:
            logits = split.full_forward(xb)
            total_loss += float(loss_fn(logits, yb).item())
            correct += int((logits.data.argmax(axis=1) == yb).sum())
            count += len(yb)
    split.client.train(client_was_training)
    split.server.train(server_was_training)
    if count == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return total_loss / count, correct / count


def predict_labels(model: nn.Module, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Argmax predictions for a raw image array."""
    was_training = model.training
    model.eval()
    preds = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            logits = model(Tensor(images[start : start + batch_size]))
            preds.append(logits.data.argmax(axis=1))
    if was_training:
        model.train()
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)
