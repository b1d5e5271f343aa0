"""Topology, device fleet, bandwidth allocation and system facade tests."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.wireless.bandwidth import (
    AllocatorSharePolicy,
    EqualAllocation,
    InverseRateAllocation,
    ProportionalRateAllocation,
    as_share_policy,
    make_allocator,
)
from repro.wireless.channel import ChannelConfig, WirelessChannel
from repro.wireless.devices import DeviceFleet, DeviceProfile
from repro.wireless.system import WirelessConfig, WirelessSystem
from repro.wireless.topology import NetworkTopology, Position


class TestTopology:
    def test_client_count_and_bounds(self):
        topo = NetworkTopology(50, cell_radius_m=200.0, min_distance_m=20.0, seed=0)
        d = topo.distances()
        assert len(d) == 50
        assert d.min() >= 20.0 - 1e-9
        assert d.max() <= 200.0 + 1e-9

    def test_deterministic_per_seed(self):
        a = NetworkTopology(10, seed=5).distances()
        b = NetworkTopology(10, seed=5).distances()
        np.testing.assert_allclose(a, b)

    def test_uniform_area_density(self):
        """With sqrt sampling, ~25% of clients fall within half the radius
        when min_distance is negligible."""
        topo = NetworkTopology(4000, cell_radius_m=100.0, min_distance_m=1.0, seed=0)
        frac_inner = (topo.distances() < 50.0).mean()
        assert abs(frac_inner - 0.25) < 0.03

    def test_client_to_client_distance_symmetry(self):
        topo = NetworkTopology(5, seed=1)
        assert topo.client_distance(1, 3) == pytest.approx(topo.client_distance(3, 1))
        assert topo.client_distance(2, 2) == 0.0

    def test_position_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkTopology(0)
        with pytest.raises(ValueError):
            NetworkTopology(5, cell_radius_m=10.0, min_distance_m=10.0)


class TestDevices:
    def test_compute_time(self):
        dev = DeviceProfile("d", flops_per_second=1e9)
        assert dev.compute_time(5e8) == pytest.approx(0.5)
        assert dev.compute_time(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("bad", flops_per_second=0.0)
        with pytest.raises(ValueError):
            DeviceProfile("d", 1e9).compute_time(-1.0)

    def test_homogeneous_fleet(self):
        fleet = DeviceFleet(8, client_flops=1e9, heterogeneity=0.0, seed=0)
        flops = fleet.client_flops_array()
        np.testing.assert_allclose(flops, np.full(8, 1e9))

    def test_heterogeneous_fleet_spreads(self):
        fleet = DeviceFleet(100, client_flops=1e9, heterogeneity=0.5, seed=0)
        flops = fleet.client_flops_array()
        assert flops.std() > 0
        assert len(np.unique(flops)) == 100

    def test_server_faster_than_clients(self):
        fleet = DeviceFleet(4, seed=0)
        assert fleet.server.flops_per_second > max(fleet.client_flops_array())

    def test_device_classes_assign_tiers_round_robin(self):
        tiers = (("phone", 1e8), ("laptop", 6e8), ("edge-box", 2.4e9))
        fleet = DeviceFleet(7, heterogeneity=0.0, seed=0, device_classes=tiers)
        assert fleet.device_classes == tiers
        names = [c.name for c in fleet.clients]
        assert names == [
            "phone-0", "laptop-1", "edge-box-2", "phone-3", "laptop-4",
            "edge-box-5", "phone-6",
        ]
        flops = fleet.client_flops_array()
        np.testing.assert_allclose(flops[:3], [1e8, 6e8, 2.4e9])
        np.testing.assert_allclose(flops[0], flops[3])

    def test_device_classes_compose_with_heterogeneity(self):
        tiers = (("phone", 1e8), ("laptop", 6e8))
        fleet = DeviceFleet(20, heterogeneity=0.5, seed=0, device_classes=tiers)
        flops = fleet.client_flops_array()
        # the lognormal factor spreads within tiers
        assert len(np.unique(flops)) == 20
        # ...while the tier structure survives it on average
        assert flops[1::2].mean() > flops[0::2].mean()

    def test_device_classes_validate_flops(self):
        with pytest.raises(ValueError):
            DeviceFleet(4, device_classes=(("phone", 0.0),))

    def test_no_device_classes_is_legacy_naming(self):
        fleet = DeviceFleet(3, client_flops=1e9, seed=0)
        assert fleet.device_classes is None
        assert [c.name for c in fleet.clients] == [
            "client-0", "client-1", "client-2",
        ]


def _test_channel(n=4):
    return WirelessChannel(
        np.linspace(20, 120, n),
        config=ChannelConfig(shadowing_std_db=0.0, rayleigh_fading=False),
        rng=np.random.default_rng(0),
    )


class TestBandwidthAllocation:
    def test_equal_split_sums_to_total(self):
        alloc = EqualAllocation(20e6)
        shares = alloc.shares([0, 1, 2], _test_channel())
        assert sum(shares.values()) == pytest.approx(20e6)
        assert len(set(round(v) for v in shares.values())) == 1

    def test_proportional_gives_strong_links_more(self):
        alloc = ProportionalRateAllocation(20e6)
        shares = alloc.shares([0, 3], _test_channel())  # client 0 nearest
        assert shares[0] > shares[3]

    def test_inverse_gives_weak_links_more(self):
        alloc = InverseRateAllocation(20e6)
        shares = alloc.shares([0, 3], _test_channel())
        assert shares[3] > shares[0]

    def test_inverse_equalizes_airtime(self):
        """Same payload should take (approximately) equal time per link."""
        ch = _test_channel()
        alloc = InverseRateAllocation(20e6)
        shares = alloc.shares([0, 3], ch)
        # airtime ∝ 1 / (share * spectral_efficiency); using the mean-SNR
        # efficiency the allocator itself uses:
        eff = {
            c: np.log2(1 + 10 ** (ch.expected_snr_db(c, 1e6) / 10)) for c in (0, 3)
        }
        t0 = 1.0 / (shares[0] * eff[0])
        t3 = 1.0 / (shares[3] * eff[3])
        assert t0 == pytest.approx(t3, rel=0.01)

    def test_empty_active_set(self):
        assert EqualAllocation(1e6).shares([], _test_channel()) == {}

    def test_factory(self):
        assert isinstance(make_allocator("equal", 1e6), EqualAllocation)
        with pytest.raises(ValueError):
            make_allocator("magic", 1e6)


class _Flow:
    def __init__(self, client):
        self.client = client


class TestShareCacheWindow:
    """``AllocatorSharePolicy`` memoises share tables in a bounded
    recency window (it used to keep one table per distinct active set,
    forever)."""

    @staticmethod
    def _churn(num_clients=40, steps=3000, seed=3):
        """Active sets of a long pipeline-style run: one client leaves
        or (re)joins per step, like flows on the contended medium."""
        rng = np.random.default_rng(seed)
        active = set(range(0, num_clients, 2))
        for _ in range(steps):
            client = int(rng.integers(num_clients))
            if client in active and len(active) > 1:
                active.remove(client)
            else:
                active.add(client)
            yield sorted(active)

    @pytest.mark.parametrize(
        "name", ["equal", "proportional_rate", "inverse_rate"]
    )
    def test_long_run_stays_bounded_and_bitwise_equal(self, name):
        channel = _test_channel(40)
        policy = as_share_policy(make_allocator(name, 20e6), channel)
        fresh = make_allocator(name, 20e6)
        most = 0
        for clients in self._churn():
            flows = [_Flow(c) for c in clients]
            got = policy.allocate(flows, 20e6)
            expected = fresh.shares(clients, channel)
            assert got == [expected[c] for c in clients]
            most = max(most, len(policy._share_cache))
        assert most <= AllocatorSharePolicy.SHARE_CACHE_WINDOW

    def test_leave_and_return_is_a_hit(self):
        """S -> S minus {a} -> S: the pattern of a client's uplink /
        compute / downlink; the second ask for S must not recompute."""
        calls = []

        class Counting(EqualAllocation):
            def shares(self, active_clients, channel):
                calls.append(tuple(active_clients))
                return super().shares(active_clients, channel)

        policy = as_share_policy(Counting(20e6), _test_channel(6))
        everyone = [_Flow(c) for c in range(6)]
        policy.allocate(everyone, 20e6)
        policy.allocate(everyone[1:], 20e6)
        policy.allocate(everyone, 20e6)
        assert calls == [tuple(range(6)), tuple(range(1, 6))]

    def test_eviction_is_least_recently_used(self):
        policy = as_share_policy(EqualAllocation(20e6), _test_channel(4))
        policy.SHARE_CACHE_WINDOW = 2
        a, b, c = ([_Flow(0)], [_Flow(1)], [_Flow(2)])
        for flows in (a, b, a, c):  # touching a again makes b the oldest
            policy.allocate(flows, 20e6)
        assert list(policy._share_cache) == [frozenset({0}), frozenset({2})]


class TestEqualSharesPlainFloats:
    """``EqualAllocation.shares`` and the one-flow-per-client path of
    ``AllocatorSharePolicy.allocate`` skip the array round trip and the
    ``* scale / count`` of the general expressions; the answers are the
    general expressions' bit for bit."""

    @staticmethod
    def _general_allocate(allocator, channel, flows, capacity):
        """``AllocatorSharePolicy.allocate`` before the fast path, frozen."""
        counts = Counter(flow.client for flow in flows if flow.client is not None)
        if not counts:
            share = capacity / len(flows)
            return [share] * len(flows)
        shares = allocator.shares(sorted(counts), channel)
        unattributed = sum(1 for flow in flows if flow.client is None)
        fallback = capacity / len(flows)
        scale = 1.0 - unattributed / len(flows)
        return [
            shares[flow.client] * scale / counts[flow.client]
            if flow.client is not None
            else fallback
            for flow in flows
        ]

    @pytest.mark.parametrize("bandwidth_hz", [20e6, 1e6 / 3.0, 40])
    def test_shares_equal_the_unit_weight_expression(self, bandwidth_hz):
        alloc = EqualAllocation(bandwidth_hz)
        for n in range(1, 241):
            clients = list(range(n))
            got = alloc.shares(clients, None)
            want = alloc._weights_to_shares(clients, np.ones(n))
            assert list(got) == clients
            assert [type(v) for v in got.values()] == [float] * n
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]

    @pytest.mark.parametrize("name", ["equal", "proportional_rate", "inverse_rate"])
    def test_allocate_equals_the_general_expression(self, name):
        channel = _test_channel(40)
        rng = np.random.default_rng(5)
        policy = as_share_policy(make_allocator(name, 20e6), channel)
        fresh = make_allocator(name, 20e6)
        for _ in range(300):
            size = int(rng.integers(1, 30))
            kind = rng.integers(3)
            if kind == 0:  # one flow per client, all attributed: the fast path
                clients = [int(c) for c in rng.choice(40, size=size, replace=False)]
            elif kind == 1:  # several flows of one client
                clients = [int(c) for c in rng.integers(0, 8, size=size)]
            else:  # some unattributed cross traffic
                clients = [int(c) if c < 40 else None for c in rng.integers(0, 50, size=size)]
            flows = [_Flow(c) for c in clients]
            got = policy.allocate(flows, 20e6)
            want = self._general_allocate(fresh, channel, flows, 20e6)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_no_flows_no_shares(self):
        """Used to divide by ``len(flows)``."""
        policy = as_share_policy(EqualAllocation(20e6), _test_channel())
        assert policy.allocate([], 20e6) == []
        assert policy._share_cache == {}


class TestWirelessSystem:
    def test_build_and_price(self):
        sys = WirelessSystem(WirelessConfig(num_clients=5, seed=0))
        t = sys.uplink_seconds(0, nbits=1e6, bandwidth_hz=1e6)
        assert t > 0 and np.isfinite(t)
        assert sys.client_compute_seconds(0, 1e9) > sys.server_compute_seconds(1e9)

    def test_deterministic_rates_mode(self):
        sys = WirelessSystem(WirelessConfig(num_clients=3, deterministic_rates=True, seed=0))
        a = sys.uplink_seconds(0, 1e6, 1e6)
        b = sys.uplink_seconds(0, 1e6, 1e6)
        assert a == pytest.approx(b)

    def test_relay_is_up_plus_down(self):
        sys = WirelessSystem(WirelessConfig(num_clients=3, deterministic_rates=True, seed=0))
        up = sys.uplink_seconds(0, 1e6, 1e6)
        down = sys.downlink_seconds(1, 1e6, 1e6)
        relay = sys.relay_seconds(0, 1, 1e6, 1e6)
        assert relay == pytest.approx(up + down)

    def test_share_for(self):
        sys = WirelessSystem(WirelessConfig(num_clients=3, total_bandwidth_hz=12e6))
        assert sys.share_for(0, 6) == pytest.approx(2e6)

    def test_link_report_rows(self):
        sys = WirelessSystem(WirelessConfig(num_clients=4, seed=0))
        rows = sys.link_report()
        assert len(rows) == 4
        assert all(r["mean_uplink_mbps"] > 0 for r in rows)

    def test_same_seed_same_scenario(self):
        a = WirelessSystem(WirelessConfig(num_clients=6, seed=3))
        b = WirelessSystem(WirelessConfig(num_clients=6, seed=3))
        np.testing.assert_allclose(a.topology.distances(), b.topology.distances())
