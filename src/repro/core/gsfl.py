"""Group-based split federated learning (GSFL) — the paper's contribution.

The split-then-federated protocol (§II):

1. **Model distribution** — the AP cuts the global model at ``cut_layer``
   and sends the client-side half to the first client of each of the
   ``M`` groups (M concurrent downlinks share the bandwidth).
2. **Model training** — inside each group, clients run sequential split
   learning against the group's *own server-side replica* (the edge
   server hosts M replicas — versus one per client in naive SplitFed,
   the §I storage argument).  The M group pipelines run in parallel;
   each group's active transmitter gets a ``1/M`` bandwidth share under
   the equal allocator (or a policy/optimizer-driven share).
3. **Model aggregation** — once every group finishes (a barrier), the
   last client of each group uploads its client-side half; the AP
   FedAvg-aggregates the M client halves and the M server replicas into
   the next round's global model.

Convergence intuition reproduced by this implementation: per round a
group performs ``(N/M)·local_steps`` *sequential* SGD updates (SL-like
progress) while groups parallelize wall-clock time; FL gets only
``local_steps`` sequential updates before averaging.  Hence GSFL ≈ SL in
rounds-to-accuracy (slightly behind due to averaging), ≫ FL; and GSFL
beats SL in wall clock by parallelizing client compute and concentrating
transmit power on narrower subchannels.

The round engine mirrors that structure on the host: the parent thread
draws everything from shared streams (failure injection, priced
activities with their fading realizations) in protocol order, then the
``M`` independent group pipelines run on the scheme's
:mod:`repro.exec` executor — serial, thread-pool, or process-pool —
each member drawing its mini-batches from its own loader at the step
that trains on them, with bitwise-identical training histories on every
backend.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.core.aggregation import fedavg
from repro.core.grouping import make_groups, validate_groups
from repro.core.regroup import RegroupContext, make_regroup_policy
from repro.nn.split import split_model
from repro.schemes.base import Activity, Scheme, Stage
from repro.schemes.pricing import LatencyModel
from repro.schemes.split_common import (
    AsyncSplitStateMixin,
    GroupTask,
    SplitHyperParams,
    price_local_round,
    run_group_tasks,
    train_split_group,
)
from repro.sim.server import RetryAt, UnitRoundWork

__all__ = ["GroupSplitFederatedLearning"]


class GroupSplitFederatedLearning(AsyncSplitStateMixin, Scheme):
    """GSFL: parallel per-group sequential split learning + FedAvg.

    Parameters beyond the :class:`~repro.schemes.base.Scheme` basics:

    num_groups:
        ``M``; ``M=1`` degenerates to SL-with-aggregation, ``M=N`` to
        SplitFed-style fully parallel training.
    cut_layer:
        Split point (client-side layer count).
    grouping / groups:
        Either a strategy name for :func:`repro.core.grouping.make_groups`
        or an explicit partition.  Only the *initial* partition: with a
        non-static ``config.regroup`` policy, ``self.groups`` is
        per-round state — :meth:`_maybe_regroup` re-partitions the fleet
        between rounds from the run's own dynamics evidence (see
        :mod:`repro.core.regroup`).
    bandwidth_shares:
        Optional per-group bandwidth shares in Hz (e.g. from
        :func:`repro.core.resource.minmax_bandwidth_split`); defaults to
        the equal split ``B / M``.
    failure_rate:
        Per-round probability that a client is unavailable (crash, deep
        fade, battery).  An unavailable client is skipped in its group's
        relay — the client-side model hops straight to the next member;
        a fully-failed group contributes nothing to that round's
        aggregation.  Failure-injection extension beyond the paper.
    """

    name = "GSFL"
    supports_async = True
    #: mid-activity failure recovery: once the retry budget is spent, the
    #: relay chain re-routes around the dead client — the AP re-issues
    #: its cached client-model copy to the next relay — and the group's
    #: contribution is recorded as *partial*; when the failed client has
    #: no live successor (its upload was the chain's last hop), the group
    #: surrenders the round instead.
    _recovery_mode = "reroute"

    def __init__(
        self,
        *args: object,
        num_groups: int = 6,
        cut_layer: int = 1,
        grouping: str = "contiguous",
        groups: list[list[int]] | None = None,
        bandwidth_shares: list[float] | None = None,
        failure_rate: float = 0.0,
        **kwargs: object,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate}")
        self.failure_rate = failure_rate
        self._failure_rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 0xFA11])
        )
        self.skipped_clients_total = 0
        self.cut_layer = cut_layer
        self.split = split_model(self.model, cut_layer)
        self._loss_fn = nn.CrossEntropyLoss()
        self._pricing = LatencyModel(
            self.system,
            self.profile,
            self.config.batch_size,
            quantize_bits=self.config.quantize_bits,
            transport=self.config.transport,
        )

        if groups is not None:
            self.groups = [list(g) for g in groups]
            self.grouping = "explicit"
        else:
            self.groups = make_groups(
                grouping,
                self.num_clients,
                num_groups,
                **self._grouping_args(grouping, num_groups),
            )
            self.grouping = grouping
        validate_groups(self.groups, self.num_clients)
        self.num_groups = len(self.groups)

        # Between-round regrouping: ``static`` maps to no policy at all, so
        # the default path never touches the constructor-frozen partition
        # (golden-pinned bitwise).  Regrouping re-partitions the fleet at
        # global round boundaries, which only exist under the sync barrier;
        # free-running async pipelines have no instant at which swapping
        # memberships between units is well-defined.
        self._regroup_policy = make_regroup_policy(self.config.regroup)
        if self._regroup_policy is not None and not self.aggregation_policy.synchronous:
            raise ValueError(
                f"regroup={self.config.regroup!r} requires synchronous "
                f"aggregation (sync / bounded:0), got "
                f"aggregation={self.config.aggregation!r}"
            )
        #: recorder-log cursors: abort/retry telemetry consumed incrementally
        #: so each regroup sees only the evidence since the previous one
        self._aborts_seen = 0
        self._retries_seen = 0

        if bandwidth_shares is not None:
            if len(bandwidth_shares) != self.num_groups:
                raise ValueError(
                    f"{len(bandwidth_shares)} bandwidth shares for "
                    f"{self.num_groups} groups"
                )
            self.bandwidth_shares = list(bandwidth_shares)
        else:
            self.bandwidth_shares = [
                self._pricing.total_bandwidth_hz / self.num_groups
            ] * self.num_groups

        # Global halves; per-round working replicas are loaded from these.
        self._global_client_state = self.split.client.state_dict()
        self._global_server_state = self.split.server.state_dict()

    def _grouping_args(self, grouping: str, num_groups: int) -> dict:
        """Arguments the chosen strategy consumes (and nothing else).

        :func:`~repro.core.grouping.make_groups` rejects extraneous
        arguments, so each strategy gets exactly its own inputs; the
        cost-driven strategies need the wireless system to price clients.
        """
        if grouping == "random":
            return {"seed": self.config.seed}
        if grouping == "compute_balanced":
            if self.system is None:
                raise ValueError(
                    "compute_balanced grouping requires a wireless system "
                    "(per-client FLOPS are unknown without one)"
                )
            return {"client_flops": self.system.fleet.client_flops_array()}
        if grouping == "channel_aware":
            if self.system is None:
                raise ValueError(
                    "channel_aware grouping requires a wireless system "
                    "(per-client link rates are unknown without one)"
                )
            # Airtime priced at the nominal per-group share: the bandwidth
            # a chain's active transmitter actually holds under GSFL.
            bandwidth = self._pricing.total_bandwidth_hz / num_groups
            airtime = np.array(
                [
                    1.0 / self.system.channel.mean_uplink_rate_bps(c, bandwidth)
                    for c in range(self.num_clients)
                ]
            )
            return {"per_bit_airtime": airtime}
        return {}

    # ------------------------------------------------------------------
    # between-round regrouping (sense -> act over the failure telemetry)
    # ------------------------------------------------------------------
    def _consume_abort_counts(self) -> dict[int, int]:
        """Per-client abort/retry rows logged since the previous regroup."""
        counts: dict[int, int] = {}
        for event in self.recorder.aborts[self._aborts_seen:]:
            counts[event.client] = counts.get(event.client, 0) + 1
        for event in self.recorder.retries[self._retries_seen:]:
            counts[event.client] = counts.get(event.client, 0) + 1
        self._aborts_seen = len(self.recorder.aborts)
        self._retries_seen = len(self.recorder.retries)
        return counts

    def _maybe_regroup(self, round_index: int) -> None:
        """Re-partition the fleet at a regroup boundary (no-op for static).

        Runs before the round's pipelines are built, so the new chains see
        this round's churn/participation resolution.  Round 0 always keeps
        the construction-time partition (there is no evidence yet and the
        first partition *is* the configured grouping strategy).
        """
        policy = self._regroup_policy
        if (
            policy is None
            or round_index == 0
            or round_index % self.config.regroup_every != 0
        ):
            return
        context = RegroupContext(
            round_index=round_index,
            now_s=self.runtime.now,
            dynamics=self.dynamics,
            abort_counts=self._consume_abort_counts(),
        )
        new_groups = policy.regroup([list(g) for g in self.groups], context)
        validate_groups(new_groups, self.num_clients)
        if len(new_groups) != self.num_groups:
            raise ValueError(
                f"regroup policy {policy.name!r} returned {len(new_groups)} "
                f"groups for {self.num_groups} (bandwidth shares are per-group)"
            )
        changed = new_groups != self.groups
        self.groups = [list(g) for g in new_groups]
        self.recorder.record_regroup(
            time_s=self.runtime.now,
            round_index=round_index,
            policy=policy.name,
            groups=self.groups,
            changed=changed,
        )

    # ------------------------------------------------------------------
    # round
    # ------------------------------------------------------------------
    def _run_round(self, round_index: int) -> list[Stage]:
        self._maybe_regroup(round_index)
        pricing = self._pricing
        client_model_bytes = pricing.client_model_nbytes(self.cut_layer)
        participants = set(self._round_participants())

        # ------------------------------------------------------------------
        # Phase 1 (parent thread, protocol order): draw everything that
        # consumes shared RNG streams — failure injection and channel-
        # fading demand realizations — and package each surviving group's
        # work as an independent task.  Mini-batches are not drawn here:
        # each client's loader has a private stream and serves one task,
        # so the task draws them at the step that trains on them.  Groups
        # share no training state within a round, so the tasks can then
        # run on any executor backend with bitwise-identical results.
        # ------------------------------------------------------------------
        training = Stage("group_training")
        tasks: list[GroupTask] = []

        for g, all_members in enumerate(self.groups):
            track = f"group-{g}"
            bandwidth = self.bandwidth_shares[g]

            # Population dynamics first (churn windows / participation),
            # then per-round failure injection: unavailable clients drop
            # out of this round's relay; the model hops past them.
            present = [c for c in all_members if c in participants]
            members = self._inject_failures(present)
            if not members:
                continue  # whole group lost this round

            training.extend(
                track, self._group_pipeline(members, bandwidth, client_model_bytes)
            )

            tasks.append(
                GroupTask(
                    index=g,
                    members=list(members),
                    samplers=[self.client_loaders[c].sample_batch for c in members],
                    local_steps=self.config.local_steps,
                    client_state=self._global_client_state,
                    server_state=self._global_server_state,
                    weight=float(
                        sum(len(self.client_datasets[c]) for c in members)
                    ),
                )
            )

        # ------------------------------------------------------------------
        # Phase 2: run the M group pipelines on the configured executor
        # (each worker trains its own SplitModel replica from the global
        # halves — the M edge replicas of §II, now genuinely concurrent).
        # ------------------------------------------------------------------
        results = run_group_tasks(
            tasks, self.executor, self.split, SplitHyperParams.from_config(self.config)
        )

        participants = sum(r.num_members for r in results)
        total_loss = sum(r.loss_sum for r in results)
        self._last_train_loss = (
            total_loss / participants if participants else float("nan")
        )

        # Step 3 (aggregation): FedAvg both halves across groups.  When
        # failure injection wiped out every group, the round is a no-op
        # and the previous global model carries over.
        aggregation = Stage("aggregation")
        if results:
            group_weights = [r.weight for r in results]
            self._global_client_state = fedavg(
                [r.client_state for r in results], group_weights
            )
            self._global_server_state = fedavg(
                [r.server_state for r in results], group_weights
            )
            # fedavg allocates fresh arrays and the globals are only read
            # afterwards, so the halves can adopt them without re-copying.
            self.split.client.load_state_dict(self._global_client_state, copy=False)
            self.split.server.load_state_dict(self._global_server_state, copy=False)
            aggregation.add(
                "edge-server",
                Activity(
                    pricing.aggregation_demand(
                        len(results), self.model.num_parameters()
                    ),
                    "aggregation",
                    "edge-server",
                ),
            )

        return [training, aggregation]

    # ------------------------------------------------------------------
    # shared round plumbing (sync stages and async unit pipelines)
    # ------------------------------------------------------------------
    def _inject_failures(self, present: list[int]) -> list[int]:
        """Per-round failure injection over the surviving members."""
        if self.failure_rate <= 0.0:
            return list(present)
        members = [
            c for c in present if self._failure_rng.random() >= self.failure_rate
        ]
        self.skipped_clients_total += len(present) - len(members)
        return members

    def _group_pipeline(
        self, members: list[int], bandwidth: float, client_model_bytes: int
    ) -> list[Activity]:
        """One group's relay as priced activities (no training, no batches).

        Draw order is the protocol order (downlink → per-member split-step
        fading → relay/upload), shared verbatim by the barriered stage
        construction and the async unit pipelines so the fading stream
        replays identically.  The members' mini-batches are drawn later,
        by :func:`~repro.schemes.split_common.train_split_group`, at the
        step that trains on each.
        """
        pricing = self._pricing
        # A lossy transport shrinks every model hop to the codec's wire
        # size and brackets it with encode/decode compute on the owning
        # devices; the identity codec changes nothing (bitwise-pinned).
        lossy = pricing.codec.lossy
        wire_bytes = pricing.model_wire_nbytes(client_model_bytes)
        scalars = pricing.model_scalars(client_model_bytes) if lossy else 0
        activities: list[Activity] = []
        for position, client in enumerate(members):
            if position == 0:
                # Step 1 (distribution): AP → first client of the group.
                if lossy:
                    activities.append(
                        Activity(
                            pricing.server_encode_demand(scalars),
                            "encode",
                            "edge-server",
                            detail=f"model for client-{client}",
                        )
                    )
                activities.append(
                    Activity(
                        pricing.downlink_model_demand(
                            client, wire_bytes, bandwidth
                        ),
                        "model_distribution",
                        f"client-{client}",
                        nbytes=wire_bytes,
                    )
                )
                if lossy:
                    activities.append(
                        Activity(
                            pricing.client_decode_demand(client, scalars),
                            "decode",
                            f"client-{client}",
                            detail="model",
                        )
                    )
            activities.extend(
                price_local_round(
                    client,
                    self.cut_layer,
                    self.config.local_steps,
                    pricing,
                    bandwidth,
                )
            )
            if position < len(members) - 1:
                # Step 2.3 (sharing): relay to the next client via AP.
                nxt = members[position + 1]
                if lossy:
                    activities.append(
                        Activity(
                            pricing.client_encode_demand(client, scalars),
                            "encode",
                            f"client-{client}",
                            detail="relay model",
                        )
                    )
                activities.append(
                    Activity(
                        pricing.relay_model_demand(
                            client,
                            nxt,
                            wire_bytes,
                            bandwidth,
                        ),
                        "model_relay",
                        f"client-{client}",
                        nbytes=2 * wire_bytes,
                    )
                )
                if lossy:
                    activities.append(
                        Activity(
                            pricing.client_decode_demand(nxt, scalars),
                            "decode",
                            f"client-{nxt}",
                            detail="relay model",
                        )
                    )
            else:
                # Last client returns the client-side half to the AP.
                if lossy:
                    activities.append(
                        Activity(
                            pricing.client_encode_demand(client, scalars),
                            "encode",
                            f"client-{client}",
                            detail="model upload",
                        )
                    )
                activities.append(
                    Activity(
                        pricing.uplink_model_demand(
                            client, wire_bytes, bandwidth
                        ),
                        "model_upload",
                        f"client-{client}",
                        nbytes=wire_bytes,
                    )
                )
                if lossy:
                    activities.append(
                        Activity(
                            pricing.server_decode_demand(scalars),
                            "decode",
                            "edge-server",
                            detail=f"model from client-{client}",
                        )
                    )
        return activities

    # ------------------------------------------------------------------
    # asynchronous aggregation (barrier-free policies)
    # ------------------------------------------------------------------
    def _async_units(self) -> list[int]:
        return list(range(self.num_groups))

    def _async_unit_weight(self, unit: int) -> float:
        return float(sum(len(self.client_datasets[c]) for c in self.groups[unit]))

    def _async_unit_round(
        self, unit: int, unit_round: int
    ) -> "UnitRoundWork | RetryAt":
        resolved = self._async_unit_dynamics(self.groups[unit])
        if isinstance(resolved, RetryAt):
            return resolved
        present, slowdowns = resolved
        members = self._inject_failures(present)
        if not members:
            # Whole group lost this window: the round counts for progress
            # (the lag gate must not deadlock) but commits nothing.
            return UnitRoundWork(activities=[], payload=None, weight=0.0)

        activities = self._group_pipeline(
            members,
            self.bandwidth_shares[unit],
            self._pricing.client_model_nbytes(self.cut_layer),
        )
        # Train against the *current* mixed global snapshot.  Async unit
        # rounds are serialized by the DES event loop, so the group
        # trains directly on the scheme's split model with explicit state
        # reload (the serial-executor path) on every backend.
        task = GroupTask(
            index=unit,
            members=list(members),
            samplers=[self.client_loaders[c].sample_batch for c in members],
            local_steps=self.config.local_steps,
            client_state=self._global_client_state,
            server_state=self._global_server_state,
            weight=float(sum(len(self.client_datasets[c]) for c in members)),
            split=self.split,
            private_replica=False,
        )
        result = train_split_group(task, SplitHyperParams.from_config(self.config))
        activities.append(
            Activity(
                self._pricing.aggregation_demand(2, self.model.num_parameters()),
                "aggregation",
                "edge-server",
                detail=f"async merge group-{unit}",
            )
        )
        return UnitRoundWork(
            activities=activities,
            payload=(result.client_state, result.server_state),
            weight=result.weight,
            slowdowns=slowdowns or None,
            loss_sum=result.loss_sum,
            num_contributors=result.num_members,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def server_side_replicas(self) -> int:
        """Number of server-side model replicas the edge must host (= M)."""
        return self.num_groups

    def server_storage_bytes(self) -> int:
        """Edge storage for the replicas (the §I argument vs SplitFed)."""
        if not self._pricing.enabled:
            return 0
        return self.num_groups * self.profile.server_model_bytes(self.cut_layer)
