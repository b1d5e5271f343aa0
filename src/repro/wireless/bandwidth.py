"""Bandwidth allocation policies over concurrent transmitters.

In GSFL up to ``M`` clients (one per group) transmit simultaneously and
must share the system bandwidth; SL and CL have a single active
transmitter; FL has all ``N`` uploading at round end.  The paper defers
allocation design to future work (§IV) — we implement the natural
candidates and expose them for the resource-allocation ablation:

* :class:`EqualAllocation` — uniform split (baseline used in the figures);
* :class:`ProportionalRateAllocation` — shares ∝ spectral efficiency, so
  strong links get more spectrum (throughput-maximizing tilt);
* :class:`InverseRateAllocation` — shares ∝ 1/spectral-efficiency, which
  equalizes transmission *times* across concurrent links and minimizes
  the slowest-straggler latency for equal payloads.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.utils.validation import check_positive
from repro.wireless.channel import WirelessChannel

__all__ = [
    "BandwidthAllocator",
    "EqualAllocation",
    "ProportionalRateAllocation",
    "InverseRateAllocation",
    "make_allocator",
    "AllocatorSharePolicy",
    "as_share_policy",
]


class BandwidthAllocator:
    """Maps a set of concurrently active clients to bandwidth shares."""

    name: str = "base"

    def __init__(self, total_bandwidth_hz: float) -> None:
        check_positive("total_bandwidth_hz", total_bandwidth_hz)
        self.total_bandwidth_hz = total_bandwidth_hz

    def shares(self, active_clients: list[int], channel: WirelessChannel) -> dict[int, float]:
        """Bandwidth in Hz per active client; must sum to the total."""
        raise NotImplementedError

    def _weights_to_shares(
        self, active_clients: list[int], weights: np.ndarray
    ) -> dict[int, float]:
        weights = np.asarray(weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            raise ValueError("allocation weights must have positive sum")
        return {
            c: float(self.total_bandwidth_hz * w / total)
            for c, w in zip(active_clients, weights)
        }


class EqualAllocation(BandwidthAllocator):
    """Uniform split among active transmitters."""

    name = "equal"

    def shares(self, active_clients: list[int], channel: WirelessChannel) -> dict[int, float]:
        if not active_clients:
            return {}
        # what ``_weights_to_shares`` computes for unit weights, ``B * 1.0 / n``
        # in float64, without the array round trip
        share = float(self.total_bandwidth_hz) / len(active_clients)
        return dict.fromkeys(active_clients, share)


class ProportionalRateAllocation(BandwidthAllocator):
    """Shares proportional to each link's spectral efficiency.

    Spectral efficiency uses the shadowed mean SNR (no fast fading) so the
    allocation is stable within a round.
    """

    name = "proportional_rate"

    def shares(self, active_clients: list[int], channel: WirelessChannel) -> dict[int, float]:
        if not active_clients:
            return {}
        eff = np.array(
            [self._spectral_efficiency(channel, c) for c in active_clients]
        )
        return self._weights_to_shares(active_clients, eff)

    @staticmethod
    def _spectral_efficiency(channel: WirelessChannel, client: int) -> float:
        snr_db = channel.expected_snr_db(client, bandwidth_hz=1e6)
        return float(np.log2(1.0 + 10.0 ** (snr_db / 10.0)))


class InverseRateAllocation(BandwidthAllocator):
    """Shares proportional to 1/spectral-efficiency (equalizes airtime).

    For equal payloads this minimizes the maximum transmission time across
    concurrent links, the straggler bound that gates a GSFL round.
    """

    name = "inverse_rate"

    def shares(self, active_clients: list[int], channel: WirelessChannel) -> dict[int, float]:
        if not active_clients:
            return {}
        eff = np.array(
            [
                ProportionalRateAllocation._spectral_efficiency(channel, c)
                for c in active_clients
            ]
        )
        return self._weights_to_shares(active_clients, 1.0 / np.maximum(eff, 1e-6))


_ALLOCATORS = {
    "equal": EqualAllocation,
    "proportional_rate": ProportionalRateAllocation,
    "inverse_rate": InverseRateAllocation,
}


def make_allocator(name: str, total_bandwidth_hz: float) -> BandwidthAllocator:
    """Factory by policy name (``equal`` / ``proportional_rate`` / ``inverse_rate``)."""
    if name not in _ALLOCATORS:
        raise ValueError(f"unknown allocator {name!r}; choose from {sorted(_ALLOCATORS)}")
    return _ALLOCATORS[name](total_bandwidth_hz)


class AllocatorSharePolicy:
    """Adapts a :class:`BandwidthAllocator` into a DES medium share policy.

    On every membership change of the shared link, the *instantaneously
    active* transmitter set is re-allocated by the wrapped policy — so
    the static per-round allocation rules (equal / proportional-rate /
    inverse-rate) become contention-aware: a flow's bandwidth grows when
    other pipelines fall silent and shrinks when they come on the air.
    Duck-typed against :class:`repro.sim.resources.SharePolicy` (the
    kernel calls :meth:`allocate` and consults :attr:`incremental_kind` /
    :meth:`update`), keeping ``repro.sim`` free of wireless imports.
    Allocations depend on the whole active client set, so the link keeps
    its dense engine for this policy (``incremental_kind = "dense"``).
    The policy's own fast path is a small recency window of share
    tables keyed by the active client set: a client's pipeline leaves
    the air for its compute phase and returns (``S → S∖{a} → S``), so
    about half of all membership changes re-ask for a set seen one to
    three changes ago.  The window is bounded — an unbounded memo grew
    by one ``O(active)`` table per miss, i.e. linearly with simulated
    events — at the cost of the few round-periodic repeats (the same
    ramp-up sets at every round start), which are recomputed.
    """

    #: contended allocations are membership-coupled: dense recomputation
    incremental_kind = "dense"
    #: share tables kept, most recently used last
    SHARE_CACHE_WINDOW = 64

    def update(
        self,
        added: "Sequence[object]",
        removed: "Sequence[object]",
        capacity: float,
        load: float,
    ) -> "tuple[list[float], float] | None":
        """No incremental fast path: every change re-runs the allocator."""
        return None

    def __init__(self, allocator: BandwidthAllocator, channel: WirelessChannel) -> None:
        self.allocator = allocator
        self.channel = channel
        self.name = f"allocator:{allocator.name}"
        # shares() depends only on the active client set (mean SNR, no
        # fading): the recency window, in least-recently-used-first order.
        self._share_cache: dict[frozenset[int], dict[int, float]] = {}

    def _shares_for(self, clients: frozenset[int]) -> dict[int, float]:
        cache = self._share_cache
        shares = cache.pop(clients, None)
        if shares is None:
            shares = self.allocator.shares(sorted(clients), self.channel)
            if len(cache) >= self.SHARE_CACHE_WINDOW:
                del cache[next(iter(cache))]
        cache[clients] = shares
        return shares

    def allocate(self, flows: list, capacity: float) -> list[float]:
        """Bandwidth (Hz) per flow from the allocator over active clients.

        A client with several concurrent flows splits its share equally
        among them.  Flows without a client attribution take an equal
        fraction of the capacity and the allocator distributes only the
        remainder, so the summed allocation never exceeds the link.
        """
        if not flows:
            return []
        clients = [flow.client for flow in flows]
        active = frozenset(clients)
        if len(active) == len(clients) and None not in active:
            # One flow per client, all attributed: the general expression
            # below is ``share * 1.0 / 1``, the share itself.
            shares = self._shares_for(active)
            return [shares[client] for client in clients]
        counts = Counter(client for client in clients if client is not None)
        if not counts:
            share = capacity / len(flows)
            return [share] * len(flows)
        shares = self._shares_for(frozenset(counts))
        fallback = capacity / len(flows)
        # The allocator hands out the full capacity; scale attributed
        # shares down by whatever the unattributed flows reserve.
        scale = 1.0 - clients.count(None) / len(flows)
        return [
            shares[client] * scale / counts[client] if client is not None else fallback
            for client in clients
        ]


def as_share_policy(
    allocator: BandwidthAllocator, channel: WirelessChannel
) -> AllocatorSharePolicy:
    """Contention-aware DES share policy driven by ``allocator``."""
    return AllocatorSharePolicy(allocator, channel)
