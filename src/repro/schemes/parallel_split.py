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

import functools
from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.core.aggregation import fedavg
from repro.exec import SerialExecutor
from repro.nn.split import ClientHalf, SmashedBatch, split_model
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Scheme, SchemeConfig, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import price_model_downlink, price_model_uplink

__all__ = ["ParallelSplitLearning"]


@dataclass
class _ClientPhaseTask:
    """One client's share of a PSL lockstep phase (forward or backward)."""

    client: int
    state: dict[str, np.ndarray]
    xb: np.ndarray
    grad: np.ndarray | None = None  # None → forward-only phase


def _client_forward(task: _ClientPhaseTask, half: ClientHalf) -> np.ndarray:
    """Forward phase: produce the smashed values that go on the wire."""
    half.load_state_dict(task.state)
    return half.forward_to_smashed(Tensor(task.xb)).values


def _client_backward(
    task: _ClientPhaseTask, half: ClientHalf, config: SchemeConfig
) -> dict[str, np.ndarray]:
    """Backward phase: re-run the forward to rebuild this client's graph,
    inject the fused gradient slice, step, and return the new half-state.

    (The re-run is inherent to PSL's single-server design: ``half`` has
    served every other client since this one's forward phase.
    Deterministic layers reproduce the same smashed values; batch-norm
    running stats are touched twice per step, which only perturbs the
    aggregated buffers slightly.)
    """
    half.load_state_dict(task.state)
    half.forward_to_smashed(Tensor(task.xb))
    opt = config.make_sgd(half.parameters())
    opt.zero_grad()
    half.backward_from_gradient(task.grad)
    opt.step()
    return half.state_dict()


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
        lossy = codec.lossy
        smashed_scalars = pricing.smashed_scalars(self.cut_layer) if lossy else 0

        distribution = Stage("distribution")
        if pricing.enabled:
            for c in participants:
                distribution.extend(
                    f"client-{c}",
                    price_model_downlink(pricing, c, client_model_bytes, share),
                )

        training = Stage("parallel_steps")
        client_states: list[dict[str, np.ndarray]] = []
        total_loss = 0.0
        half = self.split.client
        executor = SerialExecutor()
        # Every client starts from what the codec preserved of the
        # broadcast global half (identity codec: the global itself).
        distributed_state = (
            codec.apply_state(self._global_client_state)
            if lossy
            else self._global_client_state
        )

        # Per-client client-half states, trained in lockstep on the one
        # client-half module; the server half sees the fused batch.  Each
        # lockstep phase (client forwards, client backwards) is a set of
        # independent per-client tasks, with the fused server step
        # between them.
        for step in range(cfg.local_steps):
            step_batches = []
            for c in participants:
                xb, yb = self.client_loaders[c].sample_batch()
                step_batches.append((xb, yb))

            def state_for(position: int) -> dict[str, np.ndarray]:
                return (
                    distributed_state if step == 0 else client_states[position]
                )

            # --- parallel client forwards; smashed data crosses the cut --
            forward_tasks = [
                _ClientPhaseTask(client=c, state=state_for(i), xb=xb)
                for i, (c, (xb, _)) in enumerate(zip(participants, step_batches))
            ]
            # Each phase starts without the last pass's cached graph.
            half._last_output = None
            smashed_per_client = executor.map_groups(
                functools.partial(_client_forward, half=half), forward_tasks
            )
            if lossy:
                smashed_per_client = [
                    codec.apply(values) for values in smashed_per_client
                ]
            for c in participants:
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.client_forward_demand(c, self.cut_layer),
                        "client_compute",
                        f"client-{c}",
                        detail="forward",
                    ),
                )
                if lossy:
                    training.add(
                        f"client-{c}",
                        Activity(
                            pricing.client_encode_demand(c, smashed_scalars),
                            "encode",
                            f"client-{c}",
                            detail="smashed",
                        ),
                    )
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.uplink_smashed_demand(c, self.cut_layer, share),
                        "uplink_smashed",
                        f"client-{c}",
                        nbytes=pricing.smashed_nbytes(self.cut_layer),
                    ),
                )
            if lossy:
                # The server decodes all N arrivals before the fused step.
                training.add(
                    "edge-server",
                    Activity(
                        pricing.server_decode_demand(
                            smashed_scalars * len(participants)
                        ),
                        "decode",
                        "edge-server",
                        detail="fused smashed",
                    ),
                )

            # --- single server step over the fused batch ----------------
            fused = SmashedBatch(values=np.concatenate(smashed_per_client, axis=0))
            fused_targets = np.concatenate([yb for _, yb in step_batches])
            self._server_opt.zero_grad()
            loss, fused_grad, _ = self.split.server.forward_backward(
                fused, fused_targets, self._loss_fn
            )
            self._server_opt.step()
            if lossy:
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
            if lossy:
                # One fused encode for all N gradient slices.
                training.add(
                    "edge-server",
                    Activity(
                        pricing.server_encode_demand(
                            smashed_scalars * len(participants)
                        ),
                        "encode",
                        "edge-server",
                        detail="fused gradient",
                    ),
                )

            # --- gradients fan back out; client halves step in parallel --
            backward_tasks = []
            offset = 0
            for i, (c, (xb, _)) in enumerate(zip(participants, step_batches)):
                batch = xb.shape[0]
                backward_tasks.append(
                    _ClientPhaseTask(
                        client=c,
                        state=state_for(i),
                        xb=xb,
                        grad=fused_grad[offset : offset + batch],
                    )
                )
                offset += batch
            half._last_output = None
            client_states = executor.map_groups(
                functools.partial(_client_backward, half=half, config=cfg),
                backward_tasks,
            )
            for c in participants:
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.downlink_gradient_demand(c, self.cut_layer, share),
                        "downlink_gradient",
                        f"client-{c}",
                        nbytes=pricing.smashed_nbytes(self.cut_layer),
                    ),
                )
                if lossy:
                    training.add(
                        f"client-{c}",
                        Activity(
                            pricing.client_decode_demand(c, smashed_scalars),
                            "decode",
                            f"client-{c}",
                            detail="gradient",
                        ),
                    )
                training.add(
                    f"client-{c}",
                    Activity(
                        pricing.client_backward_demand(c, self.cut_layer),
                        "client_compute",
                        f"client-{c}",
                        detail="backward",
                    ),
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
        if lossy:
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
