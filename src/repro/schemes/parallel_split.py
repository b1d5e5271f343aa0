"""Parallel split learning (PSL) — the paper's reference [2] baseline.

Wu et al. (JSAC 2023) parallelize split learning differently from both
SplitFed and GSFL: all clients run their client-side forward **in
parallel**, upload smashed data concurrently, and the edge server
processes the *concatenated* batch through a **single** server-side
model (one replica — minimal storage, like vanilla SL).  Gradients fan
back out to the clients, whose client-side models are then aggregated.

Comparison axes against the other schemes:

================  ==================  ====================  ============
scheme            client parallelism  server-side replicas  averaging
================  ==================  ====================  ============
SL                none (serial)       1                     never
SplitFed          full                N                     every round
GSFL              M groups            M                     every round
PSL (this)        full                1                     every round
================  ==================  ====================  ============

PSL's server step uses an effective batch of ``N × batch_size``, so its
gradient is lower-variance than GSFL's but it averages client halves as
often as FL — convergence sits between FL and GSFL.  Included as an
extension baseline (the paper cites it as the state of the art its
grouping improves on).
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.aggregation import fedavg
from repro.nn.split import SmashedBatch, split_model
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import (
    price_gradient_return,
    price_model_downlink,
    price_model_uplink,
    price_smashed_upload,
)

__all__ = ["ParallelSplitLearning"]


class ParallelSplitLearning(Scheme):
    """PSL: concurrent client forward, single server model, FedAvg of
    client halves."""

    name = "PSL"

    def __init__(self, *args: object, cut_layer: int = 1, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        self.cut_layer = cut_layer
        self.split = split_model(self.model, cut_layer)
        self._loss_fn = nn.CrossEntropyLoss()
        self._pricing = LatencyModel(
            self.system,
            self.profile,
            self.config.batch_size,
            transport=self.config.transport,
        )
        self._server_opt = self.config.make_sgd(self.split.server.parameters())
        self._global_client_state = self.split.client.state_dict()

    def _run_round(self, round_index: int) -> list[Stage]:
        cfg = self.config
        pricing = self._pricing
        participants = self._round_participants()
        if not participants:
            return []
        share = pricing.total_bandwidth_hz / len(participants)
        client_model_bytes = pricing.client_model_nbytes(self.cut_layer)
        codec = pricing.codec
        fused_scalars = pricing.smashed_scalars(self.cut_layer) * len(participants)

        distribution = Stage("distribution")
        if pricing.enabled:
            for c in participants:
                distribution.extend(
                    f"client-{c}",
                    price_model_downlink(pricing, c, client_model_bytes, share),
                )

        training = Stage("parallel_steps")
        total_loss = 0.0
        half = self.split.client
        # Every client starts from what the codec preserved of the
        # broadcast global half (identity codec: the global itself).
        client_states = [codec.apply_state(self._global_client_state)] * len(participants)

        # Per-client client-half states, trained in lockstep on the one
        # client-half module; the server half sees the fused batch.
        for _ in range(cfg.local_steps):
            step_batches = [
                self.client_loaders[c].sample_batch() for c in participants
            ]

            # --- parallel client forwards; smashed data crosses the cut --
            # Each phase starts without the last pass's cached graph.
            half._last_output = None
            smashed_per_client = []
            for state, (xb, _) in zip(client_states, step_batches):
                half.load_state_dict(state)
                smashed_per_client.append(
                    codec.apply(half.forward_to_smashed(Tensor(xb)).values)
                )
            for c in participants:
                training.extend(
                    f"client-{c}",
                    price_smashed_upload(pricing, c, self.cut_layer, share),
                )
            # The server decodes all N arrivals before the fused step.
            training.extend("edge-server", pricing.decode(None, fused_scalars, "fused smashed"))

            # --- single server step over the fused batch ----------------
            fused = SmashedBatch(values=np.concatenate(smashed_per_client, axis=0))
            fused_targets = np.concatenate([yb for _, yb in step_batches])
            self._server_opt.zero_grad()
            loss, fused_grad, _ = self.split.server.forward_backward(
                fused, fused_targets, self._loss_fn
            )
            self._server_opt.step()
            fused_grad = codec.apply(fused_grad)
            total_loss += loss
            # Server compute scales with the fused batch (N x batch).
            training.add(
                "edge-server",
                Activity(
                    pricing.server_split_step_demand(
                        self.cut_layer, multiplier=len(participants)
                    ),
                    "server_compute",
                    "edge-server",
                    detail="fused batch",
                ),
            )
            # One fused encode for all N gradient slices.
            training.extend("edge-server", pricing.encode(None, fused_scalars, "fused gradient"))

            # --- gradients fan back out; client halves step in parallel --
            # Each client re-runs its forward to rebuild its graph (``half``
            # has served every other client since its forward phase), takes
            # its slice of the fused gradient and steps.  Deterministic
            # layers reproduce the same smashed values; batch-norm running
            # stats are touched twice per step, which only perturbs the
            # aggregated buffers slightly.
            half._last_output = None
            stepped = []
            offset = 0
            for state, (xb, _) in zip(client_states, step_batches):
                half.load_state_dict(state)
                half.forward_to_smashed(Tensor(xb))
                opt = cfg.make_sgd(half.parameters())
                opt.zero_grad()
                half.backward_from_gradient(fused_grad[offset : offset + xb.shape[0]])
                opt.step()
                stepped.append(half.state_dict())
                offset += xb.shape[0]
            client_states = stepped
            for c in participants:
                training.extend(
                    f"client-{c}",
                    price_gradient_return(pricing, c, self.cut_layer, share),
                )

        self._last_train_loss = total_loss / cfg.local_steps

        upload = Stage("upload")
        if pricing.enabled:
            for c in participants:
                upload.extend(
                    f"client-{c}",
                    price_model_uplink(pricing, c, client_model_bytes, share),
                )

        aggregation = Stage("aggregation")
        # The server averages what survived the uplink codec.
        client_states = [codec.apply_state(s) for s in client_states]
        self._global_client_state = fedavg(
            client_states, self._client_sample_counts(participants)
        )
        self.split.client.load_state_dict(self._global_client_state, copy=False)
        aggregation.add(
            "edge-server",
            Activity(
                pricing.aggregation_demand(
                    len(participants), self.model.num_parameters()
                ),
                "aggregation",
                "edge-server",
            ),
        )
        return [distribution, training, upload, aggregation]

    def server_side_replicas(self) -> int:
        """PSL keeps a single server-side model (like vanilla SL)."""
        return 1

    def server_storage_bytes(self) -> int:
        if not self._pricing.enabled:
            return 0
        return self.profile.server_model_bytes(self.cut_layer)
