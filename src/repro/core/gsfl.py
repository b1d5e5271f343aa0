"""Group-based split federated learning (GSFL) — the paper's contribution.

The split-then-federated protocol (§II):

1. **Model distribution** — the AP cuts the global model at ``cut_layer``
   and sends the client-side half to the first client of each of the
   ``M`` groups (M concurrent downlinks share the bandwidth).
2. **Model training** — inside each group, clients run sequential split
   learning against the group's *own server-side replica* (the edge
   server hosts M replicas — versus one per client in naive SplitFed,
   the §I storage argument).  The M group pipelines run in parallel;
   each group's active transmitter gets a ``1/M`` bandwidth share.
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

The round itself is :class:`~repro.schemes.split_common.SplitFederatedScheme`'s
(SplitFed runs the same round with one-client groups): it first draws
everything from shared streams (failure injection, each group's relay
chain priced by :func:`~repro.schemes.split_common.price_relay_chain`
with its fading realizations) in protocol order, then trains the ``M``
independent group pipelines one after another — their parallelism lives
in simulated time, where the DES prices it — each member drawing its
mini-batches from its own loader at the step that trains on them.  What
this module adds is GSFL's own: the grouping and between-round
regrouping, the equal ``B / M`` group share, per-round failure injection and
``"reroute"`` recovery.
"""

from __future__ import annotations

import numpy as np

from repro.core.grouping import make_groups, validate_groups
from repro.core.regroup import RegroupContext, make_regroup_policy
from repro.schemes.base import Stage
from repro.schemes.split_common import SplitFederatedScheme
from repro.utils.validation import check_probability

__all__ = ["GroupSplitFederatedLearning"]


class GroupSplitFederatedLearning(SplitFederatedScheme):
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
    failure_rate:
        Per-round probability that a client is unavailable (crash, deep
        fade, battery).  An unavailable client is skipped in its group's
        relay — the client-side model hops straight to the next member;
        a fully-failed group contributes nothing to that round's
        aggregation.  Failure-injection extension beyond the paper.
    """

    name = "GSFL"
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
        failure_rate: float = 0.0,
        **kwargs: object,
    ) -> None:
        super().__init__(*args, cut_layer=cut_layer, **kwargs)
        self.failure_rate = check_probability("failure_rate", failure_rate)
        self._failure_rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 0xFA11])
        )
        self.skipped_clients_total = 0

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
                f"groups for {self.num_groups} (each group holds B / M of the band)"
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
    # the split-federated round's hooks
    # ------------------------------------------------------------------
    def _run_round(self, round_index: int) -> list[Stage]:
        self._maybe_regroup(round_index)
        return super()._run_round(round_index)

    def _units(self) -> list[list[int]]:
        return self.groups

    def _unit_bandwidth(self, unit: int) -> float:
        return self._pricing.total_bandwidth_hz / self.num_groups

    def _unit_members(self, present: list[int]) -> list[int]:
        """Per-round failure injection over the present members: an
        unavailable client drops out of its group's relay."""
        if self.failure_rate <= 0.0:
            return present
        members = [
            c for c in present if self._failure_rng.random() >= self.failure_rate
        ]
        self.skipped_clients_total += len(present) - len(members)
        return members
