"""Centralized learning (CL) baseline.

All client data is pooled at the edge server (a one-time raw-data upload
in round 0 — the very cost FL/SL exist to avoid) and the full model is
trained there.  Each round the server processes ``N * local_steps``
mini-batches, matching the total data visited per round by the
distributed schemes, so accuracy-per-round curves are comparable
(Fig 2a's CL series).

The pool is indices, not images: when every client dataset is a
:class:`~repro.data.dataset.Subset` of one dataset (every scenario the
library builds), the pool is one ``Subset`` over their concatenated
indices, and the pooled loader gathers each batch from the shared
images — the samples, in the order, a concatenated copy would hold.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.data.dataset import ArrayDataset, DataLoader, Dataset, Subset
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.utils.rng import new_rng

__all__ = ["CentralizedLearning"]


def _pool(datasets: list[Dataset]) -> Dataset:
    """Every client's samples as one dataset, client after client.

    Subsets of one dataset pool by index; anything else is concatenated.
    """
    subsets = [ds for ds in datasets if isinstance(ds, Subset)]
    if len(subsets) == len(datasets) and all(
        ds.dataset is subsets[0].dataset for ds in subsets
    ):
        return Subset(subsets[0].dataset, np.concatenate([ds.indices for ds in subsets]))
    xs, ys = zip(*(ds.arrays() for ds in datasets))
    return ArrayDataset(np.concatenate(xs), np.concatenate(ys))


class CentralizedLearning(Scheme):
    """CL: pooled-data training at the edge server."""

    name = "CL"

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self._pooled_loader = DataLoader(
            _pool(self.client_datasets),
            batch_size=self.config.batch_size,
            shuffle=True,
            seed=new_rng(self.config.seed + 104729),
        )
        self._optimizer = self.config.make_sgd(self.model.parameters())
        self._loss_fn = nn.CrossEntropyLoss()
        self._pricing = LatencyModel(self.system, self.profile, self.config.batch_size)

    def _run_round(self, round_index: int) -> list[Stage]:
        stages: list[Stage] = []

        if round_index == 0 and self._pricing.enabled:
            # One-time raw-data upload, all clients concurrently at B/N.
            # (CL ignores population dynamics: after this pooling step the
            # clients play no further part in training.)
            upload = Stage("data_upload")
            share = self._pricing.total_bandwidth_hz / self.num_clients
            for c, ds in enumerate(self.client_datasets):
                upload.add(
                    f"client-{c}",
                    Activity(
                        self._pricing.uplink_data_demand(c, len(ds), share),
                        "data_upload",
                        f"client-{c}",
                        nbytes=self._pricing.dataset_nbytes(len(ds)),
                    ),
                )
            stages.append(upload)

        train = Stage("training")
        steps = self.num_clients * self.config.local_steps
        total_loss = 0.0
        for _ in range(steps):
            xb, yb = self._pooled_loader.sample_batch()
            self._optimizer.zero_grad()
            loss = self._loss_fn(self.model(Tensor(xb)), yb)
            loss.backward()
            self._optimizer.step()
            total_loss += float(loss.item())
            train.add(
                "edge-server",
                Activity(
                    self._pricing.server_full_step_demand(),
                    "server_compute",
                    "edge-server",
                ),
            )
        self._last_train_loss = total_loss / steps
        stages.append(train)
        return stages
