"""SplitFed learning (SFL) — the hybrid scheme the paper argues against.

Thapa et al.'s SplitFed-V1: *every* client trains in parallel against its
*own* server-side model replica, then both halves are FedAvg-aggregated.
This removes SL's sequential latency but "when there are many clients,
the number of server-side models is large, consuming prohibitive storage
resources" (paper §I) — exactly the gap GSFL fills with M ≪ N replicas.

Included as (a) the storage-footprint comparator and (b) the M=N extreme
of the grouping ablation.  Protocol-wise it *is* GSFL's round with
one-client groups: it runs :class:`~repro.schemes.split_common.SplitFederatedScheme`
over the units ``[[0], [1], ..., [N-1]]`` and supplies only its
bandwidth rule (``B`` split over the round's participants) and its
recovery mode.  Convergence-wise it matches FL's averaging frequency
(every ``local_steps`` updates) while moving only smashed data and
half-models.
"""

from __future__ import annotations

from repro.schemes.split_common import SplitFederatedScheme

__all__ = ["SplitFedLearning"]


class SplitFedLearning(SplitFederatedScheme):
    """SplitFed-V1: fully parallel split learning, one replica per client."""

    name = "SplitFed"
    _unit_label = "client"
    #: mid-activity failure recovery: singleton "chains" have no relay to
    #: fall back on, so SplitFed retries the aborted leg after the client
    #: recovers (bounded by the retry budget) and surrenders otherwise.
    _recovery_mode = "retry"

    def _units(self) -> list[list[int]]:
        return [[c] for c in range(self.num_clients)]

    def _unit_bandwidth(self, unit: int) -> float:
        # The round's participants share the medium equally; barrier-free
        # rounds have no round-wide participant set and see all N clients.
        return self._pricing.total_bandwidth_hz / len(self._round_participants())
