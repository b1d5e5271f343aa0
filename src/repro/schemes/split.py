"""Vanilla split learning (SL) baseline.

Gupta & Raskar's sequential protocol: one client-side model is relayed
client-to-client (through the AP, as in the paper's model-sharing step)
while a single server-side model at the edge absorbs every client's
smashed data in turn.  All N clients train *sequentially* within a round
— the "long training latency" (§I) that motivates GSFL.

Protocol-wise it is the split-federated round with one unit: it runs
:class:`~repro.schemes.split_common.SplitFederatedScheme` over the one
relay chain ``[0, 1, ..., N-1]``, whose sole active transmitter gets the
whole system bandwidth.  SL hosts one server-side model, so there is
nothing to average: the round adopts the chain's trained halves and has
no aggregation stage.  (GSFL at ``num_groups=1`` trains the same model
and adds a one-model FedAvg.)
"""

from __future__ import annotations

from repro.schemes.split_common import SplitFederatedScheme

__all__ = ["SplitLearning"]


class SplitLearning(SplitFederatedScheme):
    """SL: sequential relay split learning with a single server model."""

    name = "SL"
    #: one chain of every client: nothing to run barrier-free against
    supports_async = False
    #: one server-side model: the chain's trained halves (its rows) are
    #: the next global model, with no aggregation stage
    _fedavg_units = False

    def _units(self) -> list[list[int]]:
        return [list(range(self.num_clients))]

    def _unit_bandwidth(self, unit: int) -> float:
        return self._pricing.total_bandwidth_hz
