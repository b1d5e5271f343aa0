"""Client data partitioning for federated/split experiments.

The paper's setting has 30 clients with private local datasets.  This
module produces per-client index sets from a pooled dataset under two
standard regimes:

* **IID** — uniform random equal split (the paper's implicit setting);
* **Dirichlet non-IID** — per-client class proportions drawn from
  ``Dir(alpha)``, the standard label-skew benchmark.

All functions return ``list[np.ndarray]`` of sample indices, one per
client, partitioning the dataset (every index appears exactly once).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset, Subset
from repro.utils.rng import new_rng

__all__ = ["partition_iid", "partition_dirichlet", "make_client_datasets"]


def _check_args(num_samples: int, num_clients: int) -> None:
    if num_clients <= 0:
        raise ValueError(f"num_clients must be positive, got {num_clients}")
    if num_samples < num_clients:
        raise ValueError(
            f"cannot split {num_samples} samples across {num_clients} clients"
        )


def partition_iid(
    num_samples: int, num_clients: int, seed: int | np.random.Generator | None = None
) -> list[np.ndarray]:
    """Uniform random split into near-equal shares."""
    _check_args(num_samples, num_clients)
    rng = new_rng(seed)
    order = rng.permutation(num_samples)
    return [np.sort(part) for part in np.array_split(order, num_clients)]


def partition_dirichlet(
    labels: np.ndarray,
    num_clients: int,
    alpha: float = 0.5,
    seed: int | np.random.Generator | None = None,
    min_per_client: int = 1,
) -> list[np.ndarray]:
    """Label-skewed split with per-client class mix drawn from Dir(alpha).

    Smaller ``alpha`` → more skew.  Re-draws until every client holds at
    least ``min_per_client`` samples (guards degenerate empty clients).
    """
    labels = np.asarray(labels)
    _check_args(len(labels), num_clients)
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = new_rng(seed)
    num_classes = int(labels.max()) + 1

    for _ in range(100):
        shares = [list() for _ in range(num_clients)]
        for cls in range(num_classes):
            cls_idx = np.flatnonzero(labels == cls)
            rng.shuffle(cls_idx)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(proportions)[:-1] * len(cls_idx)).astype(int)
            for client, part in enumerate(np.split(cls_idx, cuts)):
                shares[client].extend(part.tolist())
        if min(len(s) for s in shares) >= min_per_client:
            return [np.sort(np.asarray(s, dtype=np.int64)) for s in shares]
    raise RuntimeError(
        "could not satisfy min_per_client after 100 draws; "
        "lower min_per_client or raise alpha"
    )


def make_client_datasets(dataset: Dataset, parts: list[np.ndarray]) -> list[Subset]:
    """Wrap per-client index sets as dataset views."""
    return [Subset(dataset, idx) for idx in parts]

