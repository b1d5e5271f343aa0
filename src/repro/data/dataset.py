"""Dataset containers and mini-batch loading.

``Dataset`` is a minimal map-style protocol (``__len__`` + ``__getitem__``
returning ``(x, y)``), with array-backed and subset implementations and a
``DataLoader`` that yields ``(images, labels)`` numpy batches.

Batches are gathered, not stacked: everything that needs several samples
at once (``DataLoader.__iter__``, ``DataLoader.sample_batch``,
``Dataset.arrays``) asks the dataset for them through one method,
:meth:`Dataset.take`.  An :class:`ArrayDataset` answers with one fancy
index per array, a :class:`Subset` composes its indices with the caller's
and hands the question down, and only a dataset that really has to visit
its items one by one (the base class) runs the per-item loop, in index
order.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.utils.rng import new_rng

__all__ = ["Dataset", "ArrayDataset", "Subset", "DataLoader"]


class Dataset:
    """Map-style dataset protocol."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:  # pragma: no cover
        raise NotImplementedError

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The samples at ``indices``, in that order, as ``(images, labels)``
        arrays.  This default visits the items one by one."""
        if len(indices) == 0:
            raise ValueError("cannot take zero samples one by one: their shape is unknown")
        xs, ys = zip(*(self[int(i)] for i in indices))
        return np.stack(xs), np.asarray(ys)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the whole dataset as ``(images, labels)`` arrays."""
        return self.take(np.arange(len(self)))


class ArrayDataset(Dataset):
    """Dataset backed by in-memory arrays.

    Parameters
    ----------
    images:
        Array of shape ``(N, ...)``.
    labels:
        Integer array of shape ``(N,)``.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images)
        labels = np.asarray(labels)
        if len(images) != len(labels):
            raise ValueError(
                f"images ({len(images)}) and labels ({len(labels)}) length mismatch"
            )
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.images[indices], self.labels[indices]

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.images, self.labels


class Subset(Dataset):
    """View of another dataset restricted to ``indices``."""

    def __init__(self, dataset: Dataset, indices: Sequence[int]) -> None:
        self.dataset = dataset
        idx = np.asarray(indices)
        if idx.size and idx.dtype.kind not in "iu":
            raise TypeError(f"subset indices must be integers, got dtype {idx.dtype}")
        self.indices = idx.astype(np.int64, copy=False)
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= len(dataset)
        ):
            raise IndexError("subset indices out of range")

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, index: int) -> tuple[np.ndarray, int]:
        return self.dataset[int(self.indices[index])]

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.dataset.take(self.indices[indices])


class DataLoader:
    """Iterate a dataset in mini-batches of numpy arrays.

    Reshuffles every epoch when ``shuffle=True`` using a private generator,
    so two loaders with the same seed replay identical batch streams —
    required for scheme-vs-scheme comparisons from identical conditions.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = False,
        drop_last: bool = False,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = new_rng(seed)

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            batch_idx = order[start : start + self.batch_size]
            if self.drop_last and len(batch_idx) < self.batch_size:
                return
            yield self.dataset.take(batch_idx)

    def sample_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw one random mini-batch (with reshuffle), for single steps."""
        n = len(self.dataset)
        if n == 0:
            raise ValueError("cannot sample a batch from an empty dataset")
        idx = self._rng.choice(n, size=min(self.batch_size, n), replace=False)
        return self.dataset.take(idx)
