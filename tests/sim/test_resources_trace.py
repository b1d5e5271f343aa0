"""Resource semaphore, fair-share link and trace recorder tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import EqualShare, FairShareLink, Resource
from repro.sim.trace import TraceEvent, TraceRecorder


class TestResource:
    def _user(self, env, res, name, hold, log):
        grant = res.request()
        yield grant
        log.append(("start", name, env.now))
        yield env.timeout(hold)
        res.release()
        log.append(("end", name, env.now))

    def test_capacity_limits_concurrency(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        env.process(self._user(env, res, "a", 2.0, log))
        env.process(self._user(env, res, "b", 2.0, log))
        env.run()
        starts = {n: t for k, n, t in log if k == "start"}
        assert starts == {"a": 0.0, "b": 2.0}

    def test_fifo_grant_order(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []
        for name in "abc":
            env.process(self._user(env, res, name, 1.0, log))
        env.run()
        start_order = [n for k, n, _ in log if k == "start"]
        assert start_order == ["a", "b", "c"]

    def test_counts(self):
        env = Environment()
        res = Resource(env, capacity=2)
        log = []
        for name in "abc":
            env.process(self._user(env, res, name, 1.0, log))
        env.run(until=0.5)
        assert res.in_use == 2
        assert res.queued == 1

    def test_release_without_request_raises(self):
        env = Environment()
        res = Resource(env, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    @pytest.mark.parametrize("capacity", [0, -1, float("nan")])
    def test_invalid_capacity(self, capacity):
        """A NaN capacity used to be accepted and then grant nothing."""
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=capacity)


class TestFairShareLink:
    def _sender(self, env, link, name, bits, start, times):
        yield env.timeout(start)
        yield link.transfer(bits)
        times[name] = env.now

    def test_single_flow_exact(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=100.0)
        times = {}
        env.process(self._sender(env, link, "f", 250.0, 0.0, times))
        env.run()
        assert times["f"] == pytest.approx(2.5)

    def test_two_equal_flows_halve_rate(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=10.0)
        times = {}
        for n in ("a", "b"):
            env.process(self._sender(env, link, n, 100.0, 0.0, times))
        env.run()
        assert times["a"] == pytest.approx(20.0)
        assert times["b"] == pytest.approx(20.0)

    def test_staggered_arrival_processor_sharing(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=10.0)
        times = {}
        env.process(self._sender(env, link, "long", 100.0, 0.0, times))
        env.process(self._sender(env, link, "short", 25.0, 5.0, times))
        env.run()
        assert times["short"] == pytest.approx(10.0)
        assert times["long"] == pytest.approx(12.5)

    def test_equal_share_of_no_flows_is_empty(self):
        """Used to divide by ``len(flows)``."""
        assert EqualShare().allocate([], 10.0) == []

    def test_invalid_args(self):
        env = Environment()
        with pytest.raises(ValueError):
            FairShareLink(env, capacity_bps=0)
        link = FairShareLink(env, 10)
        with pytest.raises(ValueError):
            link.transfer(0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_nan_and_infinite_capacity_or_size_rejected(self, value):
        """``<= 0`` let NaN through: a NaN capacity or size makes every
        finish time NaN; an infinite one never finishes or finishes at 0."""
        env = Environment()
        with pytest.raises(ValueError, match="finite"):
            FairShareLink(env, capacity_bps=value)
        link = FairShareLink(env, 10)
        with pytest.raises(ValueError, match="finite"):
            link.transfer(value)
        assert link.active_flows == 0 and env.pending == 0

    @given(st.lists(st.floats(10.0, 500.0), min_size=1, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_work_conservation(self, sizes):
        """Total completion time of simultaneous flows equals total bits /
        capacity for the last finisher (work-conserving discipline)."""
        env = Environment()
        link = FairShareLink(env, capacity_bps=50.0)
        times = {}
        for i, bits in enumerate(sizes):
            env.process(self._sender(env, link, i, bits, 0.0, times))
        env.run()
        last = max(times.values())
        assert last == pytest.approx(sum(sizes) / 50.0, rel=1e-6)


class TestTraceRecorder:
    def test_record_and_aggregate(self):
        rec = TraceRecorder()
        rec.record(0.0, 1.0, "client_compute", "client-0", 0)
        rec.record(1.0, 3.0, "uplink_smashed", "client-0", 0, nbytes=100)
        rec.record(3.0, 4.0, "server_compute", "edge-server", 0)
        assert len(rec) == 3
        totals = rec.total_time_by_phase()
        assert totals["uplink_smashed"] == pytest.approx(2.0)
        assert rec.total_bytes() == 100
        assert rec.total_bytes_by_phase()["uplink_smashed"] == 100

    def test_unknown_phase_rejected(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError, match="phase"):
            rec.record(0, 1, "teleport", "x", 0)

    def test_event_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(2.0, 1.0, "wait", "x", 0)

    def test_filter_by_phase_and_actor(self):
        rec = TraceRecorder()
        rec.record(0, 1, "client_compute", "client-1", 0)
        rec.record(0, 1, "client_compute", "client-2", 0)
        rec.record(0, 1, "server_compute", "edge-server", 0)
        assert len(rec.filter(phases=["client_compute"])) == 2
        assert len(rec.filter(actor_prefix="client-")) == 2
        assert len(rec.filter(phases=["server_compute"], actor_prefix="edge")) == 1

    def test_actors_listing(self):
        rec = TraceRecorder()
        rec.record(0, 1, "client_compute", "b", 0)
        rec.record(0, 1, "client_compute", "a", 0)
        assert rec.actors() == ["a", "b"]
