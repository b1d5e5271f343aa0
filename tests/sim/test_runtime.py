"""Demand vocabulary and Runtime tests: static/nominal resolution,
persistent absolute clock, straggler multipliers, contended medium."""

from __future__ import annotations

import pytest

from repro.schemes.base import Activity, Stage
from repro.sim.engine import Environment
from repro.sim.resources import EqualShare, FairShareLink, NominalShare
from repro.sim.runtime import (
    ComputeDemand,
    Runtime,
    TransmitDemand,
    TransmitLeg,
    demand_lower_bound_s,
    demand_nominal_s,
)
from repro.sim.server import SyncBarrier
from repro.sim.trace import TraceRecorder


def identity_leg(nbits, client=0):
    """Leg whose bitrate equals its allocated capacity (rate_fn = id)."""
    return TransmitLeg(nbits=nbits, client=client, rate_fn=lambda hz: hz)


class TestDemands:
    def test_fixed_demand_views(self):
        """A float is the fixed-duration demand; an activity refuses a
        negative one."""
        assert demand_lower_bound_s(2.5) == demand_nominal_s(2.5) == 2.5
        with pytest.raises(ValueError, match="negative duration"):
            Activity(-1.0, "client_compute", "client-0")

    def test_compute_demand_seconds(self):
        d = ComputeDemand(flops=1e9, flops_per_s=2e8, client=3)
        assert d.base_seconds == pytest.approx(5.0)
        assert d.lower_bound_s == d.nominal_s == d.base_seconds

    def test_compute_demand_multiplier(self):
        one = ComputeDemand(flops=1e9, flops_per_s=1e9)
        fused = ComputeDemand(flops=1e9, flops_per_s=1e9, multiplier=6.0)
        assert fused.base_seconds == pytest.approx(6.0 * one.base_seconds)

    def test_compute_demand_validation(self):
        with pytest.raises(ValueError):
            ComputeDemand(flops=-1.0, flops_per_s=1.0)
        with pytest.raises(ValueError):
            ComputeDemand(flops=1.0, flops_per_s=0.0)

    def test_transmit_demand_nominal_and_lower_bound(self):
        d = TransmitDemand(
            legs=(identity_leg(100.0),), nominal_hz=10.0, total_hz=50.0
        )
        assert d.nominal_s == pytest.approx(10.0)  # 100 bits at 10 bps
        assert d.lower_bound_s == pytest.approx(2.0)  # whole medium: 50 bps
        assert d.lower_bound_s <= d.nominal_s

    def test_transmit_demand_legs_sum(self):
        d = TransmitDemand(
            legs=(identity_leg(100.0), identity_leg(50.0, client=1)),
            nominal_hz=10.0,
            total_hz=10.0,
        )
        assert d.nominal_s == pytest.approx(15.0)

    def test_transmit_demand_validation(self):
        with pytest.raises(ValueError):
            TransmitDemand(legs=(), nominal_hz=1.0, total_hz=1.0)
        with pytest.raises(ValueError):
            TransmitDemand(legs=(identity_leg(1.0),), nominal_hz=2.0, total_hz=1.0)


def _one_stage(activities, track="t"):
    stage = Stage("s")
    stage.extend(track, activities)
    return stage


class TestRuntimeStatic:
    def test_compute_resolved_from_flops(self):
        runtime = Runtime()
        stage = _one_stage(
            [Activity(ComputeDemand(1e9, 2.5e8, client=0), "client_compute", "client-0")]
        )
        assert SyncBarrier().resolve_round(runtime, [stage], None, 0) == pytest.approx(4.0)

    def test_transmit_resolved_at_nominal_share(self):
        runtime = Runtime(total_bandwidth_hz=100.0)
        demand = TransmitDemand(
            legs=(identity_leg(300.0),), nominal_hz=30.0, total_hz=100.0
        )
        stage = _one_stage([Activity(demand, "uplink_smashed", "client-0")])
        # 300 bits at the nominal 30 bps — not at the full 100 bps.
        assert SyncBarrier().resolve_round(runtime, [stage], None, 0) == pytest.approx(10.0)

    def test_concurrent_nominal_flows_do_not_interact(self):
        """Static subchannels: a lone transmitter gains nothing from the
        other subchannel sitting idle."""
        runtime = Runtime(total_bandwidth_hz=100.0)
        fast = TransmitDemand(legs=(identity_leg(50.0, 0),), nominal_hz=50.0, total_hz=100.0)
        slow = TransmitDemand(legs=(identity_leg(500.0, 1),), nominal_hz=50.0, total_hz=100.0)
        stage = Stage("s")
        stage.add("a", Activity(fast, "uplink_smashed", "client-0"))
        stage.add("b", Activity(slow, "uplink_smashed", "client-1"))
        assert SyncBarrier().resolve_round(runtime, [stage], None, 0) == pytest.approx(10.0)

    def test_straggler_multiplier_applies_to_client_compute_only(self):
        runtime = Runtime()
        stage = Stage("s")
        stage.add("c", Activity(ComputeDemand(100.0, 100.0, client=2), "client_compute", "client-2"))
        stage.add("s", Activity(ComputeDemand(100.0, 100.0, client=None), "server_compute", "edge-server"))
        total = SyncBarrier().resolve_round(
            runtime, [stage], None, 0, compute_slowdown={2: 4.0}
        )
        assert total == pytest.approx(4.0)  # client 1 s -> 4 s; server stays 1 s

    def test_clock_persists_across_rounds(self):
        runtime = Runtime()
        stage = _one_stage([Activity(1.5, "wait", "a")])
        SyncBarrier().resolve_round(runtime, [stage], None, 0)
        stage2 = _one_stage([Activity(2.0, "wait", "a")])
        SyncBarrier().resolve_round(runtime, [stage2], None, 1)
        assert runtime.now == pytest.approx(3.5)

    def test_trace_records_absolute_times(self):
        runtime = Runtime()
        rec = TraceRecorder()
        barrier = SyncBarrier()
        barrier.resolve_round(runtime, [_one_stage([Activity(1.0, "wait", "a")])], rec, 0)
        barrier.resolve_round(runtime, [_one_stage([Activity(1.0, "wait", "a")])], rec, 1)
        assert rec.events[1].start == pytest.approx(1.0)
        assert rec.events[1].end == pytest.approx(2.0)

    def test_device_resource_is_fifo_capacity_one(self):
        runtime = Runtime()
        res = runtime.device(0)
        assert res.capacity == 1
        assert runtime.device(0) is res


class TestRuntimeContended:
    def test_equal_share_policy_splits_among_active(self):
        """Two identity-rate flows on a contended medium halve each other;
        after the short one leaves, the long one speeds back up."""
        runtime = Runtime(total_bandwidth_hz=10.0, share_policy=EqualShare())
        short = TransmitDemand(legs=(identity_leg(25.0, 0),), nominal_hz=5.0, total_hz=10.0)
        long = TransmitDemand(legs=(identity_leg(100.0, 1),), nominal_hz=5.0, total_hz=10.0)
        stage = Stage("s")
        stage.add("a", Activity(short, "uplink_smashed", "client-0"))
        stage.add("b", Activity(long, "uplink_smashed", "client-1"))
        rec = TraceRecorder()
        total = SyncBarrier().resolve_round(runtime, [stage], rec, 0)
        # both at 5 bps until t=5 (short done); long then at 10 bps for
        # its remaining 75 bits -> 5 + 7.5 = 12.5
        assert total == pytest.approx(12.5)
        by_actor = {e.actor: e for e in rec.events}
        assert by_actor["client-0"].end == pytest.approx(5.0)
        assert by_actor["client-1"].end == pytest.approx(12.5)

    def test_contended_never_beats_lower_bound(self):
        runtime = Runtime(total_bandwidth_hz=10.0, share_policy=EqualShare())
        demand = TransmitDemand(legs=(identity_leg(100.0, 0),), nominal_hz=5.0, total_hz=10.0)
        stage = _one_stage([Activity(demand, "uplink_smashed", "client-0")])
        total = SyncBarrier().resolve_round(runtime, [stage], None, 0)
        # lone flow gets the whole medium: resolves at the lower bound,
        # faster than nominal
        assert total == pytest.approx(demand.lower_bound_s)
        assert total < demand.nominal_s


class TestFairShareLinkMembership:
    """Flows joining/leaving mid-transfer recompute completion times."""

    def _sender(self, env, link, bits, start, times, key, **kw):
        yield env.timeout(start)
        yield link.transfer(bits, **kw)
        times[key] = env.now

    def test_join_mid_transfer_slows_existing_flow(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=10.0)
        times = {}
        env.process(self._sender(env, link, 100.0, 0.0, times, "first"))
        env.process(self._sender(env, link, 30.0, 4.0, times, "second"))
        env.run()
        # first: 40 bits by t=4, then 5 bps; second finishes 30 bits at
        # t=10, first's remaining 30 bits then at 10 bps -> 13
        assert times["second"] == pytest.approx(10.0)
        assert times["first"] == pytest.approx(13.0)

    def test_leave_mid_transfer_speeds_up_remaining(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=12.0)
        times = {}
        env.process(self._sender(env, link, 60.0, 0.0, times, "short"))
        env.process(self._sender(env, link, 120.0, 0.0, times, "long"))
        env.run()
        # both at 6 bps; short done at 10; long's remaining 60 at 12 bps
        assert times["short"] == pytest.approx(10.0)
        assert times["long"] == pytest.approx(15.0)

    def test_three_way_churn(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=30.0)
        times = {}
        env.process(self._sender(env, link, 300.0, 0.0, times, "a"))
        env.process(self._sender(env, link, 150.0, 0.0, times, "b"))
        env.process(self._sender(env, link, 75.0, 5.0, times, "c"))
        env.run()
        # t<5: a,b at 15 bps (a:225, b:75 left). t>=5: 10 bps each.
        # c (75) and b (75) finish at t=12.5; a (150 left) then 30 bps -> 17.5
        assert times["b"] == pytest.approx(12.5)
        assert times["c"] == pytest.approx(12.5)
        assert times["a"] == pytest.approx(17.5)

    def test_nominal_share_ignores_membership(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=100.0, policy=NominalShare())
        times = {}
        env.process(
            self._sender(env, link, 100.0, 0.0, times, "a", nominal=20.0)
        )
        env.process(
            self._sender(env, link, 100.0, 1.0, times, "b", nominal=20.0)
        )
        env.run()
        # Each holds its 20 bps subchannel regardless of the other.
        assert times["a"] == pytest.approx(5.0)
        assert times["b"] == pytest.approx(6.0)

    def test_nominal_share_requires_nominal(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=10.0, policy=NominalShare())

        def proc():
            yield link.transfer(10.0)  # no nominal declared

        env.process(proc())
        with pytest.raises(ValueError, match="nominal"):
            env.run()

    def test_nominal_share_oversubscription_scales_down(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=10.0, policy=NominalShare())
        times = {}
        for key in ("a", "b"):
            env.process(
                self._sender(env, link, 80.0, 0.0, times, key, nominal=8.0)
            )
        env.run()
        # 2 x 8 bps demanded of a 10 bps link -> both scaled to 5 bps.
        assert times["a"] == pytest.approx(16.0)
        assert times["b"] == pytest.approx(16.0)

    def test_rate_fn_translates_allocation(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=10.0)
        times = {}
        env.process(
            self._sender(
                env, link, 100.0, 0.0, times, "f", rate_fn=lambda hz: 2.0 * hz
            )
        )
        env.run()
        # Lone flow allocated all 10 units; rate_fn doubles them.
        assert times["f"] == pytest.approx(5.0)


class TestResourceFifoOrder:
    """FIFO grant order under interleaved request/release patterns."""

    def _user(self, env, res, name, hold, log):
        grant = res.request()
        yield grant
        log.append((name, env.now))
        yield env.timeout(hold)
        res.release()

    def test_grant_order_follows_request_order_with_unequal_holds(self):
        env = Environment()
        from repro.sim.resources import Resource

        res = Resource(env, capacity=2)
        log = []
        for name, hold in (("a", 5.0), ("b", 1.0), ("c", 3.0), ("d", 1.0), ("e", 1.0)):
            env.process(self._user(env, res, name, hold, log))
        env.run()
        names = [n for n, _ in log]
        assert names == ["a", "b", "c", "d", "e"]
        starts = dict(log)
        # c takes b's slot at t=1, d takes c's slot at t=4, e takes a's at 5
        assert starts["c"] == pytest.approx(1.0)
        assert starts["d"] == pytest.approx(4.0)
        assert starts["e"] == pytest.approx(5.0)
