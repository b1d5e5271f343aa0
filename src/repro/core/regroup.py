"""Between-round client regrouping driven by the runtime's own dynamics.

The paper leaves client grouping to future work (§IV: "we will study the
impact of ... client grouping on the system performance") and evaluates a
static fleet.  :mod:`repro.core.grouping` answers *how to partition once*;
this module answers *when and how to re-partition* — between rounds,
using the evidence the event-driven runtime accumulates while a run is in
flight:

* the availability trace (:class:`repro.experiments.dynamics.ClientDynamics`
  window state: who is up right now, and for how much longer), and
* the failure telemetry of the mid-activity fault model (per-client
  abort/retry counts from the trace recorder and the
  :class:`~repro.sim.server.AggregationServer` abort log).

This is the first feature where the learning loop *reads back* the DES's
failure evidence — the sense→act loop the roadmap's churn-aware-grouping
item asks for.

Policies (:data:`REGROUP_POLICIES`):

* ``static`` — today's behaviour: the partition chosen at construction
  time is never touched.  The scheme driver skips the regroup hook
  entirely, so runs are bitwise identical to the constructor-frozen path
  (pinned by the golden-history suite).
* ``availability_aware`` — re-deal the fleet by *expected remaining
  up-time* read off the churn trace at the regroup instant: clients whose
  up-window closes soonest (and clients currently inside a down-window)
  sink to the **tail** of each GSFL relay chain, so the early chain
  positions — whose work starts immediately — belong to clients that will
  stay up the longest.  With no churn signal the partition is left
  untouched.
* ``abort_history`` — an exponentially-decayed per-client abort/retry
  count (EWMA over the fault telemetry observed since the previous
  regroup) ranks clients by *empirical* flakiness; chains route around
  flaky clients by parking them in mid/tail positions where the GSFL
  reroute fallback is cheap, while the empirically most reliable member
  anchors the chain's final upload (a tail death is the one failure the
  relay cannot re-route around — it surrenders the group's round).

Every policy returns an exact partition of the same client set with
group sizes within one of each other (:func:`~repro.core.grouping.validate_groups`
invariants), and none of them consumes shared RNG streams — regrouping
never perturbs the training, fading, or churn draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "REGROUP_POLICIES",
    "RegroupContext",
    "RegroupPolicy",
    "AvailabilityAwareRegroup",
    "AbortHistoryRegroup",
    "make_regroup_policy",
]

#: supported between-round regrouping policies
REGROUP_POLICIES = ("static", "availability_aware", "abort_history")


@dataclass(frozen=True)
class RegroupContext:
    """Evidence handed to a policy at one regroup instant.

    ``dynamics`` is the run's availability-trace surface
    (:class:`~repro.experiments.dynamics.ClientDynamics` in production;
    scripted stand-ins in tests) or ``None`` when the scenario has no
    dynamics layer.  ``abort_counts`` maps client → number of abort and
    retry telemetry rows attributed to that client *since the previous
    regroup* (the scheme driver consumes the recorder/server logs
    incrementally).
    """

    round_index: int
    now_s: float
    dynamics: object | None = None
    abort_counts: Mapping[int, int] = field(default_factory=dict)


class RegroupPolicy:
    """Re-partitions the fleet between rounds.

    ``regroup(groups, context)`` receives the current partition (one list
    of client ids per group, relay order significant for GSFL) and must
    return a new exact partition of the same clients into the same number
    of groups, sizes within one.  Policies may keep internal state across
    calls (the EWMA of :class:`AbortHistoryRegroup`), but must stay
    deterministic: same evidence in, same partition out.
    """

    name = "base"

    def regroup(
        self, groups: list[list[int]], context: RegroupContext
    ) -> list[list[int]]:
        raise NotImplementedError


def _deal(ordered: list[int], num_groups: int) -> list[list[int]]:
    """Round-robin deal of an ordered client list into ``num_groups``.

    Preserves the input order within each group (item ``i`` goes to group
    ``i % num_groups``), so a list sorted best-first yields chains whose
    relay order is best-first too; sizes stay within one by construction.
    """
    groups: list[list[int]] = [[] for _ in range(num_groups)]
    for i, client in enumerate(ordered):
        groups[i % num_groups].append(client)
    return groups


class AvailabilityAwareRegroup(RegroupPolicy):
    """Sort the fleet by expected remaining up-time; short-lived to the tail.

    The churn realization is frozen per run, so the availability trace is
    an *oracle* for the near future: a client whose up-window closes in
    50 ms **will** fail 50 ms from now.  Clients are ranked by remaining
    up-time at the regroup instant (``0`` for clients currently inside a
    down-window, ``+inf`` when the trace places no failure on them) and
    dealt best-first across the groups — every chain gets long-lived
    clients at its head, where work starts immediately, and the clients
    about to fail (or already down) at its tail, where the round reaches
    them last and the reroute fallback is cheapest.  Currently-down
    clients therefore always form a suffix of their chain — never a
    mid-chain relay hop.

    With no dynamics layer, no churn, or indistinguishable scores the
    partition is returned unchanged (no signal → no change).
    """

    name = "availability_aware"

    def regroup(
        self, groups: list[list[int]], context: RegroupContext
    ) -> list[list[int]]:
        unchanged = [list(g) for g in groups]
        dynamics = context.dynamics
        if dynamics is None:
            return unchanged
        now = context.now_s
        clients = sorted(c for g in groups for c in g)
        scores = {c: self._remaining_uptime(dynamics, c, now) for c in clients}
        if len({s for s in scores.values()}) <= 1:
            return unchanged  # no churn signal: everyone looks identical
        ordered = sorted(clients, key=lambda c: (-scores[c], c))
        return _deal(ordered, len(groups))

    @staticmethod
    def _remaining_uptime(dynamics: object, client: int, now: float) -> float:
        """Seconds of up-time left on ``client``'s current window (oracle):
        0 when it is down, ``inf`` when no failure lies ahead."""
        deadline = dynamics.up_deadline(client, now)
        return math.inf if deadline is None else deadline - now


class AbortHistoryRegroup(RegroupPolicy):
    """EWMA of per-client abort/retry telemetry; route around flaky clients.

    Each regroup folds the abort/retry counts observed since the previous
    one into a per-client exponentially-decayed score
    (``score ← decay · score + fresh_count``), then deals clients across
    the groups most-reliable-first.  Within each chain the single most
    reliable member is rotated to the **tail**: the tail client's upload
    is the one hop the GSFL reroute recovery cannot skip (a dead tail
    surrenders the whole group-round), so it goes to the client with the
    cleanest record while the empirically flaky ones sit mid-chain where
    a death merely reroutes.

    Before any telemetry arrives every score is zero and the partition is
    returned unchanged (no evidence → no change).
    """

    name = "abort_history"

    def __init__(self, decay: float = 0.5) -> None:
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.decay = decay
        self._score: dict[int, float] = {}

    def regroup(
        self, groups: list[list[int]], context: RegroupContext
    ) -> list[list[int]]:
        clients = sorted(c for g in groups for c in g)
        for c in clients:
            self._score[c] = self.decay * self._score.get(c, 0.0) + float(
                context.abort_counts.get(c, 0)
            )
        if len({self._score[c] for c in clients}) <= 1:
            return [list(g) for g in groups]  # no evidence: keep the partition
        ordered = sorted(clients, key=lambda c: (self._score[c], c))
        dealt = _deal(ordered, len(groups))
        # Rotate the most reliable member (dealt head) to the chain tail.
        return [g[1:] + g[:1] if len(g) > 1 else g for g in dealt]


def make_regroup_policy(name: str) -> RegroupPolicy | None:
    """Policy instance for a :data:`REGROUP_POLICIES` name.

    ``"static"`` maps to ``None`` — the scheme driver uses the absence of
    a policy to skip the regroup hook wholesale, keeping the default path
    provably identical to the constructor-frozen behaviour.
    """
    if name == "static":
        return None
    if name == "availability_aware":
        return AvailabilityAwareRegroup()
    if name == "abort_history":
        return AbortHistoryRegroup()
    raise ValueError(
        f"unknown regroup policy {name!r}; expected one of {REGROUP_POLICIES}"
    )
