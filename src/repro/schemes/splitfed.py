"""SplitFed learning (SFL) — the hybrid scheme the paper argues against.

Thapa et al.'s SplitFed-V1: *every* client trains in parallel against its
*own* server-side model replica, then both halves are FedAvg-aggregated.
This removes SL's sequential latency but "when there are many clients,
the number of server-side models is large, consuming prohibitive storage
resources" (paper §I) — exactly the gap GSFL fills with M ≪ N replicas.

Included as (a) the storage-footprint comparator and (b) the M=N extreme
of the grouping ablation.  Protocol-wise it is GSFL with singleton
groups; convergence-wise it matches FL's averaging frequency (every
``local_steps`` updates) while moving only smashed data and half-models.
"""

from __future__ import annotations

from repro import nn
from repro.core.aggregation import fedavg
from repro.nn.split import split_model
from repro.schemes.base import Activity, Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import (
    AsyncSplitStateMixin,
    GroupTask,
    price_local_round,
    price_model_downlink,
    price_model_uplink,
    run_group_tasks,
    train_split_group,
)
from repro.sim.server import RetryAt, UnitRoundWork

__all__ = ["SplitFedLearning"]


class SplitFedLearning(AsyncSplitStateMixin, Scheme):
    """SplitFed-V1: fully parallel split learning, one replica per client."""

    name = "SplitFed"
    supports_async = True
    #: mid-activity failure recovery: singleton "chains" have no relay to
    #: fall back on, so SplitFed retries the aborted leg after the client
    #: recovers (bounded by the retry budget) and surrenders otherwise.
    _recovery_mode = "retry"

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
        self._global_client_state = self.split.client.state_dict()
        self._global_server_state = self.split.server.state_dict()

    def _run_round(self, round_index: int) -> list[Stage]:
        pricing = self._pricing
        participants = self._round_participants()
        if not participants:
            return []
        share = pricing.total_bandwidth_hz / len(participants)
        client_model_bytes = pricing.client_model_nbytes(self.cut_layer)

        # Build every transmission demand (shared fading stream) in
        # protocol order, then train the independent client pipelines —
        # SplitFed is GSFL with singleton groups, same round engine; each
        # client's batches are drawn from its own loader at the step that
        # trains on them.
        training = Stage("parallel_training")
        tasks: list[GroupTask] = []
        for client in participants:
            track = f"client-{client}"
            training.extend(
                track,
                price_model_downlink(pricing, client, client_model_bytes, share),
            )
            training.extend(
                track,
                price_local_round(
                    client, self.cut_layer, self.config.local_steps, pricing, share
                ),
            )
            training.extend(
                track,
                price_model_uplink(pricing, client, client_model_bytes, share),
            )
            tasks.append(
                GroupTask(
                    index=client,
                    members=[client],
                    samplers=[self.client_loaders[client].sample_batch],
                    local_steps=self.config.local_steps,
                    client_state=self._global_client_state,
                    server_state=self._global_server_state,
                    weight=float(len(self.client_datasets[client])),
                )
            )

        results = run_group_tasks(tasks, self.split, self.config)
        self._last_train_loss = sum(r.loss_sum for r in results) / len(participants)

        aggregation = Stage("aggregation")
        weights = self._client_sample_counts(participants)
        self._global_client_state = fedavg([r.client_state for r in results], weights)
        self._global_server_state = fedavg([r.server_state for r in results], weights)
        self.split.client.load_state_dict(self._global_client_state, copy=False)
        self.split.server.load_state_dict(self._global_server_state, copy=False)
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
        return [training, aggregation]

    # ------------------------------------------------------------------
    # asynchronous aggregation (barrier-free policies)
    # ------------------------------------------------------------------
    def _async_units(self) -> list[int]:
        return list(range(self.num_clients))

    def _async_unit_weight(self, unit: int) -> float:
        return float(len(self.client_datasets[unit]))

    def _async_unit_round(
        self, unit: int, unit_round: int
    ) -> "UnitRoundWork | RetryAt":
        resolved = self._async_unit_dynamics([unit])
        if isinstance(resolved, RetryAt):
            return resolved
        present, slowdowns = resolved
        if not present:
            return UnitRoundWork(activities=[], payload=None, weight=0.0)

        pricing = self._pricing
        share = pricing.total_bandwidth_hz / self.num_clients
        nbytes = pricing.client_model_nbytes(self.cut_layer)
        activities = price_model_downlink(pricing, unit, nbytes, share)
        activities.extend(
            price_local_round(
                unit, self.cut_layer, self.config.local_steps, pricing, share
            )
        )
        activities.extend(price_model_uplink(pricing, unit, nbytes, share))
        task = GroupTask(
            index=unit,
            members=[unit],
            samplers=[self.client_loaders[unit].sample_batch],
            local_steps=self.config.local_steps,
            client_state=self._global_client_state,
            server_state=self._global_server_state,
            weight=float(len(self.client_datasets[unit])),
        )
        result = train_split_group(task, self.split, self.config)
        activities.append(
            Activity(
                pricing.aggregation_demand(2, self.model.num_parameters()),
                "aggregation",
                "edge-server",
                detail=f"async merge client-{unit}",
            )
        )
        return UnitRoundWork(
            activities=activities,
            payload=(result.client_state, result.server_state),
            weight=result.weight,
            slowdowns=slowdowns or None,
            loss_sum=result.loss_sum,
            num_contributors=1,
        )

    # ------------------------------------------------------------------
    # storage accounting (the paper's §I argument)
    # ------------------------------------------------------------------
    def server_side_replicas(self) -> int:
        """SplitFed hosts one server-side replica per client (= N)."""
        return self.num_clients

    def server_storage_bytes(self) -> int:
        if not self._pricing.enabled:
            return 0
        return self.num_clients * self.profile.server_model_bytes(self.cut_layer)
