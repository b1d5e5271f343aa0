"""Incremental-vs-dense FairShareLink equivalence suite.

The fleet-scale link keeps two engines: the static-subchannel fast path
(:class:`NominalShare` under capacity) and the dense reference (full
recomputation — the pre-fleet-scale algorithm, pinned via
``incremental=False``), which every other policy runs on.  These tests
replay arbitrary arrival / abort / completion schedules through both
configurations and assert they resolve the same world:

* the same flows complete and the same flows abort;
* per-flow completion times agree — **bitwise** while the static fast
  path stays under capacity and abort-free (the golden-history
  guarantee), and to float round-off once a flow is settled mid-flight
  (the static path charges one flow lazily, dense charges every flow at
  each membership change);
* abort settlements (undelivered bits) agree to the same precision;
* completion *order* matches whenever completions are not
  float-round-off ties;
* :class:`EqualShare` and allocator-backed contended policies take the
  dense engine in both configurations, so their runs are identical by
  construction — the dense engine itself is held to an independent
  reference (the frozen per-flow-arming algorithm) in
  ``test_dense_link_oracle.py``, and under :class:`EqualShare` to the
  closed-form processor-sharing schedule
  (:func:`processor_sharing_reference`) here.
"""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.resources import EqualShare, FairShareLink, NominalShare

CAPACITY = 40.0

#: (start_quarters, bits_halves, abort_fraction | None)
FLOW_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=1, max_value=400),
        st.one_of(st.none(), st.floats(min_value=0.05, max_value=2.0)),
    ),
    min_size=1,
    max_size=12,
)


def run_schedule(
    make_policy,
    incremental,
    specs,
    capacity=CAPACITY,
    nominals=None,
    rate_scales=None,
    rate_fns=None,
    clients=None,
):
    """Replay one arrival/abort schedule; returns (completions, aborts, order).

    ``completions`` maps flow index -> completion time, ``aborts`` maps
    flow index -> (abort time, undelivered bits), ``order`` lists flow
    indices in completion-event order.
    """
    env = Environment()
    link = FairShareLink(
        env, capacity, policy=make_policy(), incremental=incremental
    )
    completions: dict[int, float] = {}
    aborts: dict[int, tuple[float, float]] = {}
    order: list[int] = []

    def sender(i, start, bits, abort_after):
        yield env.timeout(start)
        kwargs = {}
        if nominals is not None:
            kwargs["nominal"] = nominals[i]
        if rate_scales is not None and rate_scales[i] is not None:
            scale = rate_scales[i]
            kwargs["rate_fn"] = lambda hz: scale * hz
        if rate_fns is not None and rate_fns[i] is not None:
            kwargs["rate_fn"] = rate_fns[i]
        if clients is not None:
            kwargs["client"] = clients[i]
        done = link.transfer(bits, **kwargs)
        if abort_after is not None:
            yield env.any_of([done, env.timeout(abort_after)])
            if not done.triggered:
                undelivered = link.abort(done)
                aborts[i] = (env.now, undelivered)
                return
        else:
            yield done
        completions[i] = env.now
        order.append(i)

    for i, (start_q, bits_h, abort_frac) in enumerate(specs):
        start = start_q * 0.25
        bits = bits_h * 0.5
        # Abort delay scaled off the flow's own serial time with an
        # irrational-ish factor so exact abort/completion ties (whose
        # tie-break legitimately differs between engines) don't arise
        # from the integer grids above.
        abort_after = (
            None
            if abort_frac is None
            else abort_frac * bits / CAPACITY * 1.618033988749
        )
        env.process(sender(i, start, bits, abort_after))
    env.run()
    return completions, aborts, order


def assert_equivalent(fast, dense, exact=False):
    f_done, f_aborts, f_order = fast
    d_done, d_aborts, d_order = dense
    assert set(f_done) == set(d_done)
    assert set(f_aborts) == set(d_aborts)
    for i in d_done:
        if exact:
            assert f_done[i] == d_done[i]
        else:
            assert f_done[i] == pytest.approx(d_done[i], rel=1e-9, abs=1e-12)
    for i in d_aborts:
        assert f_aborts[i][0] == pytest.approx(d_aborts[i][0], rel=1e-9)
        assert f_aborts[i][1] == pytest.approx(
            d_aborts[i][1], rel=1e-9, abs=1e-9
        )
    if exact:
        assert f_order == d_order
    else:
        # Completion order must match except across float-round-off ties.
        times = sorted(d_done.values())
        gaps = [b - a for a, b in zip(times, times[1:])]
        if all(g > 1e-6 for g in gaps):
            assert f_order == d_order


def processor_sharing_reference(specs, capacity=CAPACITY, rate_scales=None):
    """Closed-form egalitarian processor sharing, stepped event to event.

    Shares no code with ``repro.sim.resources``: between consecutive
    arrivals, aborts and completions every active flow is served at
    ``scale * capacity / n`` (``scale`` 1 unless ``rate_scales`` gives
    one).  Arrival and abort instants follow :func:`run_schedule`'s
    grids.  Returns the same ``(completions, aborts, order)`` triple.
    """
    start = [q * 0.25 for q, _, _ in specs]
    bits = [h * 0.5 for _, h, _ in specs]
    abort_at = [
        None if frac is None else start[i] + frac * bits[i] / CAPACITY * 1.618033988749
        for i, (_, _, frac) in enumerate(specs)
    ]
    scale = [
        1.0 if rate_scales is None or rate_scales[i] is None else rate_scales[i]
        for i in range(len(specs))
    ]
    arrivals = sorted(range(len(specs)), key=lambda i: (start[i], i))
    remaining: dict[int, float] = {}
    completions: dict[int, float] = {}
    aborts: dict[int, tuple[float, float]] = {}
    order: list[int] = []
    now = 0.0
    while arrivals or remaining:
        share = capacity / len(remaining) if remaining else 0.0
        t_arrive = start[arrivals[0]] if arrivals else math.inf
        t_finish = min(
            (now + r / (scale[i] * share) for i, r in remaining.items()),
            default=math.inf,
        )
        t_abort = min(
            (abort_at[i] for i in remaining if abort_at[i] is not None),
            default=math.inf,
        )
        t = min(t_arrive, t_finish, t_abort)
        for i in remaining:
            remaining[i] -= scale[i] * share * (t - now)
        now = t
        for i in sorted(remaining):
            if remaining[i] <= 1e-9 * bits[i]:
                completions[i] = now
                order.append(i)
                del remaining[i]
            elif abort_at[i] == now:
                aborts[i] = (now, remaining.pop(i))
        while arrivals and start[arrivals[0]] <= now:
            i = arrivals.pop(0)
            remaining[i] = bits[i]
    return completions, aborts, order


class TestEqualShareEquivalence:
    """The dense engine under :class:`EqualShare` is processor sharing."""

    @given(specs=FLOW_SPECS)
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_schedules(self, specs):
        reference = processor_sharing_reference(specs)
        for incremental in (True, False):
            assert_equivalent(run_schedule(EqualShare, incremental, specs), reference)

    @given(specs=FLOW_SPECS, scales=st.data())
    @settings(max_examples=40, deadline=None)
    def test_rate_fn_flows_match_the_reference(self, specs, scales):
        """A ``rate_fn`` scales only its own flow's rate; every flow still
        holds an equal share of the allocation."""
        rate_scales = [
            scales.draw(
                st.one_of(st.none(), st.floats(min_value=0.5, max_value=3.0))
            )
            for _ in specs
        ]
        assert_equivalent(
            run_schedule(EqualShare, True, specs, rate_scales=rate_scales),
            processor_sharing_reference(specs, rate_scales=rate_scales),
        )

    def test_runs_on_the_dense_engine_before_and_after_a_drain(self):
        env = Environment()
        link = FairShareLink(env, 10.0)
        assert isinstance(link.policy, EqualShare)
        assert link._mode == "dense"
        link.transfer(10.0)
        env.run()
        assert link.active_flows == 0
        assert link._mode == "dense"


class TestNominalShareEquivalence:
    """Static subchannels: the golden-history bitwise path."""

    @given(specs=FLOW_SPECS, nominal_data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_schedules(self, specs, nominal_data):
        # Nominals that sometimes oversubscribe the link, exercising the
        # static -> dense demotion and the idle re-arm.
        nominals = [
            nominal_data.draw(st.integers(min_value=1, max_value=30)) * 1.0
            for _ in specs
        ]
        fast = run_schedule(NominalShare, True, specs, nominals=nominals)
        dense = run_schedule(NominalShare, False, specs, nominals=nominals)
        assert_equivalent(fast, dense)

    @given(specs=FLOW_SPECS, nominal_data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_under_capacity_no_aborts_is_bitwise(self, nominal_data, specs):
        """While feasible and abort-free, the fast path prices each flow
        with the same float expressions as the dense engine: completion
        times and order are *exactly* equal — the invariant the golden
        histories ride on."""
        specs = [(start, bits, None) for start, bits, _ in specs]
        nominals = [
            nominal_data.draw(st.integers(min_value=1, max_value=3)) * 1.0
            for _ in specs
        ]
        # Max 12 flows x nominal 3 = 36 < 40: never oversubscribed.
        fast = run_schedule(NominalShare, True, specs, nominals=nominals)
        dense = run_schedule(NominalShare, False, specs, nominals=nominals)
        assert_equivalent(fast, dense, exact=True)

    def test_clamped_rate_fn_demotion_rescales_survivors(self):
        """A clamping ``rate_fn`` keeps a flow's bitrate unchanged under
        dense rescaling, so demotion must cancel its static-era
        completion — a surviving static finisher would complete the flow
        without re-dividing the medium, leaving the other flows at stale
        scaled-down rates."""
        specs = [(0, 600, None), (4, 600, None)]
        nominals = [60.0, 60.0]
        rate_fns = [lambda hz: min(hz, 50.0), None]
        fast = run_schedule(
            NominalShare,
            True,
            specs,
            capacity=100.0,
            nominals=nominals,
            rate_fns=rate_fns,
        )
        dense = run_schedule(
            NominalShare,
            False,
            specs,
            capacity=100.0,
            nominals=nominals,
            rate_fns=rate_fns,
        )
        assert_equivalent(fast, dense)
        # The clamped flow finishes first; the survivor must then speed
        # up to its full (feasible) nominal rate, not stay rescaled.
        assert fast[0][1] == pytest.approx(dense[0][1], rel=1e-12)

    @given(specs=FLOW_SPECS, clamp_data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_schedules_with_clamped_rate_fns(
        self, specs, clamp_data
    ):
        """Clamped rate_fns make a flow's bps membership-*insensitive*
        in exactly the regime the static->dense demotion rescales, so
        these schedules exercise the stale-finisher path that linear
        rate_fns (whose bps always changes under rescaling) miss."""
        nominals = [
            clamp_data.draw(st.integers(min_value=1, max_value=30)) * 1.0
            for _ in specs
        ]
        rate_fns = [
            None
            if cap is None
            else (lambda hz, c=float(cap): min(hz, c))
            for cap in (
                clamp_data.draw(
                    st.one_of(st.none(), st.integers(min_value=1, max_value=20))
                )
                for _ in specs
            )
        ]
        fast = run_schedule(
            NominalShare, True, specs, nominals=nominals, rate_fns=rate_fns
        )
        dense = run_schedule(
            NominalShare, False, specs, nominals=nominals, rate_fns=rate_fns
        )
        assert_equivalent(fast, dense)

    def test_abort_settlement_matches_dense(self):
        specs = [(0, 200, None), (2, 200, 0.4), (4, 100, None)]
        nominals = [10.0, 10.0, 10.0]
        fast = run_schedule(NominalShare, True, specs, nominals=nominals)
        dense = run_schedule(NominalShare, False, specs, nominals=nominals)
        assert_equivalent(fast, dense)
        assert fast[1] and dense[1]  # the abort actually happened

    def test_fast_mode_rearms_after_drain(self):
        env = Environment()
        link = FairShareLink(env, 10.0, policy=NominalShare())
        assert link._mode == "static"
        link.transfer(10.0, nominal=6.0)
        assert link._mode == "static"
        link.transfer(10.0, nominal=6.0)  # 12 > 10: oversubscribed
        assert link._mode == "dense"
        env.run()
        assert link.active_flows == 0
        assert link._mode == "static"  # drained idle: fast path re-armed
        link.transfer(10.0, nominal=6.0)
        assert link._mode == "static"


class TestContendedPolicyEquivalence:
    """Allocator-backed policies keep the dense engine in both configs."""

    @staticmethod
    def _make_policy():
        from repro.wireless.bandwidth import (
            ProportionalRateAllocation,
            as_share_policy,
        )
        from repro.wireless.channel import WirelessChannel

        channel = WirelessChannel(
            distances_m=np.array([50.0, 80.0, 120.0, 200.0, 320.0, 500.0]),
            rng=np.random.default_rng(7),
        )
        return as_share_policy(ProportionalRateAllocation(CAPACITY), channel)

    @given(specs=FLOW_SPECS, client_data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_schedules_identical(self, specs, client_data):
        clients = [
            client_data.draw(st.integers(min_value=0, max_value=5))
            for _ in specs
        ]
        fast = run_schedule(
            self._make_policy, True, specs, clients=clients
        )
        dense = run_schedule(
            self._make_policy, False, specs, clients=clients
        )
        # Same engine on both sides: bitwise identity, order included.
        assert_equivalent(fast, dense, exact=True)
        assert set(fast[1]) == set(dense[1])
        for i in dense[1]:
            assert fast[1][i] == dense[1][i]


class TestStaleEventHygiene:
    """The queue never accumulates superseded completions unboundedly."""

    def test_pending_counts_live_entries_only(self):
        env = Environment()
        link = FairShareLink(env, 100.0)  # EqualShare: the dense engine
        for _ in range(50):
            link.transfer(100.0)
        # One armed head completion + nothing else: arming every flow
        # would have pushed 50 entries here (one per flow per reallocation).
        assert env.pending == 1
        env.run()
        assert env.pending == 0
        assert env.peak_pending <= 2

    def test_dense_engine_cancels_superseded_completions(self):
        """The invariant, not an entry count: the link never holds more
        live queue entries than live flows, and no completion superseded
        by a re-rate ever fires.  Flows EqualShare re-rates on every
        change leave one entry between them (the earliest completion);
        a clamped flow, whose rate never changes, may keep its own."""
        env = Environment()
        link = FairShareLink(env, 100.0, incremental=False)
        finished = []
        flows = []
        for i in range(40):
            clamp = (lambda hz: min(hz, 0.5)) if i % 4 == 0 else None
            flows.append(link.transfer(100.0 + i, rate_fn=clamp))
            flows[-1].add_callback(lambda _: finished.append(env.now))
            assert 1 <= env.pending <= link.active_flows
        for done in flows[5:15]:
            link.abort(done)
            assert 1 <= env.pending <= link.active_flows
        env.run()
        assert env.pending == 0
        assert len(finished) == 30
        assert env.events_fired == 30  # one per completed flow, none stale
        assert finished == sorted(finished)

    def test_churny_run_keeps_queue_bounded(self):
        env = Environment()
        link = FairShareLink(env, 1e6)

        def sender(start, bits):
            yield env.timeout(start)
            yield link.transfer(bits)

        for i in range(300):
            env.process(sender(0.001 * i, 1e3 + i))
        env.run()
        # Every arrival + departure re-arms the single head completion;
        # the heap must stay O(active), not O(events x active).
        assert env.peak_pending <= 300 + 5
        assert env.pending == 0


class TestRateTableLifetime:
    """The dense engine's per-flow ``allocation → bit/s`` table: filled on
    a miss, owned by the flow, gone with it."""

    @staticmethod
    def _counting(log):
        def rate_fn(hz):
            log.append(hz)
            return 2.0 * hz

        return rate_fn

    def test_rate_fn_runs_once_per_distinct_allocation(self):
        env = Environment()
        link = FairShareLink(env, 120.0)
        logs = [[], [], [], []]

        def sender(i, start, bits):
            yield env.timeout(start)
            yield link.transfer(bits, rate_fn=self._counting(logs[i]))

        # Arrivals at t=0, 1, 2, 4 and departures at t=3, 5, 6, 7: flow 0
        # holds B, B/2, B/3, B/2, B/3, B/2, B — seven allocations, three
        # distinct.
        for i, (start, bits) in enumerate(
            [(0.0, 1000.0), (1.0, 200.0), (2.0, 280.0), (4.0, 200.0)]
        ):
            env.process(sender(i, start, bits))
        env.run()
        assert env.now == 7.0
        assert logs == [[120.0, 60.0, 40.0], [60.0, 40.0], [40.0, 60.0], [40.0, 60.0]]

    def test_flows_without_rate_fn_allocate_no_table(self):
        env = Environment()
        link = FairShareLink(env, 100.0, incremental=False)
        for _ in range(5):
            link.transfer(100.0)  # cross traffic: allocation *is* the bitrate
        priced = link.transfer(100.0, rate_fn=lambda hz: hz)
        tables = {done: flow.rates for done, flow in link._flows.items()}
        assert tables.pop(priced) == {100.0 / 6: 100.0 / 6}
        assert list(tables.values()) == [None] * 5

    def test_static_engine_never_builds_one(self):
        env = Environment()
        link = FairShareLink(env, 100.0, policy=NominalShare())
        link.transfer(100.0, rate_fn=lambda hz: 2.0 * hz, nominal=10.0)
        link.transfer(100.0, rate_fn=lambda hz: 2.0 * hz, nominal=10.0)
        assert link._mode == "static"
        assert [flow.rates for flow in link._flows.values()] == [None, None]

    def test_resubmitted_flow_starts_a_fresh_table(self):
        env = Environment()
        link = FairShareLink(env, 100.0, incremental=False)
        log: list[float] = []
        rate_fn = self._counting(log)
        first = link.transfer(1000.0, rate_fn=rate_fn)
        env.run(until=1.0)
        undelivered = link.abort(first)
        assert undelivered == 800.0
        link.transfer(undelivered, rate_fn=rate_fn)
        env.run()
        assert log == [100.0, 100.0]  # same allocation, priced again
        assert env.now == 5.0

    def test_tables_die_with_their_flow(self):
        env = Environment()
        link = FairShareLink(env, 100.0, incremental=False)
        dones = [link.transfer(100.0 + i, rate_fn=lambda hz: 3.0 * hz) for i in range(6)]
        link.abort(dones[2])
        flows = [weakref.ref(flow) for flow in link._flows.values()]
        assert all(ref().rates for ref in flows)
        env.run()
        gc.collect()
        assert link.active_flows == 0 and env.pending == 0
        assert [ref() for ref in flows] == [None] * 5
