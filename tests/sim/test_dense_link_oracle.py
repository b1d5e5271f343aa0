"""Independent oracle for the dense :class:`FairShareLink` engine.

The dense engine keeps a finish instant and a queue ticket per flow and
queues only the link's earliest completion.  Before that rewrite it
queued a completion *per flow* and, on every membership change,
cancelled and re-created one for each flow whose rate had changed.
:class:`PerFlowArmingLink` below is that older algorithm, frozen
verbatim (the ``tests/nn/test_kernel_parity.py`` pattern) — it shares no
code with ``repro.sim.resources`` beyond the ``_Flow`` record and the
policies — and these tests replay arbitrary schedules through both.

The engines must resolve the *same event sequence*, not merely close
numbers: completion and abort instants and abort settlements are
compared **bitwise**, the interleaved completion/abort log must match
entry for entry (exact ties included — the schedules sit on quarter- and
half-unit grids precisely to manufacture same-instant finishes, submits
and aborts), and the kernel must have fired the same number of events.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment
from repro.sim.events import Event
from repro.sim.resources import (
    EqualShare,
    FairShareLink,
    NominalShare,
    SharePolicy,
    _Flow,
)
from repro.wireless.bandwidth import as_share_policy, make_allocator
from repro.wireless.channel import WirelessChannel

CAPACITY = 40.0
ALLOCATORS = ("equal", "proportional_rate", "inverse_rate")


class PerFlowArmingLink:
    """The pre-rewrite dense engine: one queued completion per flow.

    Frozen reference — do not "tidy" it towards the production engine;
    its value is that it is the algorithm the contended-medium answers
    were first produced by.
    """

    def __init__(
        self, env: Environment, capacity_bps: float, policy: SharePolicy
    ) -> None:
        self.env = env
        self.capacity_bps = capacity_bps
        self.policy = policy
        self._flows: dict[Event, _Flow] = {}

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def transfer(self, nbits, *, client=None, rate_fn=None, nominal=None) -> Event:
        flow = _Flow(
            remaining_bits=float(nbits),
            done=Event(self.env),
            last_update=self.env.now,
            client=client,
            rate_fn=rate_fn,
            nominal=nominal,
        )
        self._settle()
        self._flows[flow.done] = flow
        self._reallocate()
        return flow.done

    def abort(self, done: Event) -> "float | None":
        flow = self._flows.get(done)
        if flow is None:
            return None
        self._settle()
        if flow.completion is not None:
            self.env.cancel(flow.completion)
        flow.completion = None
        del self._flows[done]
        if self._flows:
            self._reallocate()
        return flow.remaining_bits

    def _settle(self) -> None:
        now = self.env.now
        for flow in self._flows.values():
            elapsed = now - flow.last_update
            if elapsed > 0.0 and flow.bps > 0.0:
                flow.remaining_bits = max(0.0, flow.remaining_bits - elapsed * flow.bps)
            flow.last_update = now

    def _reallocate(self) -> None:
        if not self._flows:
            return
        flows = list(self._flows.values())
        allocations = self.policy.allocate(flows, self.capacity_bps)
        for flow, allocated in zip(flows, allocations):
            bps = flow.rate_fn(allocated) if flow.rate_fn is not None else allocated
            if flow.completion is not None and bps == flow.bps:
                continue  # unchanged rate: the scheduled completion stands
            flow.bps = bps
            if flow.completion is not None:
                self.env.cancel(flow.completion)
            if bps <= 0.0:
                flow.completion = None
                continue
            completion = Event(self.env)
            flow.completion = completion
            eta = flow.remaining_bits / bps
            self.env._schedule(self.env.now + eta, completion, None)
            completion.add_callback(self._make_finisher(flow, completion))

    def _make_finisher(self, flow: _Flow, completion: Event):
        def _finish(_: Event) -> None:
            if flow.completion is not completion or flow.done.triggered:
                return
            self._settle()
            flow.remaining_bits = 0.0
            del self._flows[flow.done]
            if self._flows:
                self._reallocate()
            flow.done.succeed()

        return _finish


def reference_link(env, capacity, policy):
    return PerFlowArmingLink(env, capacity, policy)


def dense_link(env, capacity, policy):
    return FairShareLink(env, capacity, policy=policy, incremental=False)


def default_link(env, capacity, policy):
    return FairShareLink(env, capacity, policy=policy)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def scaling(factor):
    return lambda hz: factor * hz


def clamping(cap):
    return lambda hz: min(hz, cap)


def starving(threshold):
    """Zero bitrate below ``threshold``: the flow stalls while crowded."""
    return lambda hz: hz if hz >= threshold else 0.0


RATE_FNS = st.one_of(
    st.none(),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(scaling),
    # low power-of-two clamps pin finish instants onto the quarter grid,
    # where submits and abort deadlines live
    st.sampled_from([1.0, 2.0, 4.0, 8.0, 5.0, 12.0, 20.0]).map(clamping),
    st.sampled_from([4.0, 8.0, 10.0, 20.0]).map(starving),
)

#: (start_quarters, bits_halves, abort_after_quarters | None, rate_fn,
#:  client | None, nominal) — everything on exact binary grids
FLOW_SPECS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=24),
        st.one_of(
            st.integers(min_value=1, max_value=40),
            st.integers(min_value=1, max_value=400),
        ),
        st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
        RATE_FNS,
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        st.integers(min_value=1, max_value=30),
    ),
    min_size=1,
    max_size=12,
)


def replay(make_link, policy, specs, rate_fns=None, bits_scale=1.0, asked=None):
    """Replay one schedule; returns everything the engines must agree on.

    ``log`` interleaves completions and aborts in the order the kernel
    resolved them: ``("done", i, t)`` / ``("abort", i, t, undelivered)``.
    ``rate_fns`` (per flow) overrides the drawn ones; ``bits_scale``
    stretches every payload (Shannon rates are ~30x the raw capacity).
    ``asked`` (a dict) collects, per flow with a ``rate_fn``, every
    allocation that ``rate_fn`` was evaluated at, in call order.
    """
    env = Environment()
    link = make_link(env, CAPACITY, policy)
    log: list[tuple] = []

    def counting(i, rate_fn):
        calls = asked.setdefault(i, [])

        def counted(hz):
            calls.append(hz)
            return rate_fn(hz)

        return counted

    def sender(i, start, bits, abort_after, rate_fn, client, nominal):
        yield env.timeout(start)
        done = link.transfer(
            bits, client=client, rate_fn=rate_fn, nominal=float(nominal)
        )
        if abort_after is None:
            yield done
        else:
            yield env.any_of([done, env.timeout(abort_after)])
            if not done.triggered:
                log.append(("abort", i, env.now.hex(), link.abort(done).hex()))
                return
        log.append(("done", i, env.now.hex()))

    for i, (start_q, bits_h, abort_q, rate_fn, client, nominal) in enumerate(specs):
        if rate_fns is not None:
            rate_fn = rate_fns[i]
        if asked is not None and rate_fn is not None:
            rate_fn = counting(i, rate_fn)
        abort_after = None if abort_q is None else abort_q * 0.25
        env.process(
            sender(
                i, start_q * 0.25, bits_h * 0.5 * bits_scale, abort_after,
                rate_fn, client, nominal,
            )
        )
    env.run()
    return {
        "log": log,
        "events_fired": env.events_fired,
        "end": env.now.hex(),
        "stalled": link.active_flows,
    }


def assert_same_world(
    policy_factory, specs, make_link=dense_link, rate_fns=None, bits_scale=1.0
):
    expected = replay(reference_link, policy_factory(), specs, rate_fns, bits_scale)
    actual = replay(make_link, policy_factory(), specs, rate_fns, bits_scale)
    assert actual == expected
    return actual


def assert_priced_once(
    policy_factory, specs, make_link=dense_link, rate_fns=None, bits_scale=1.0
):
    """Same world as the oracle, which asks ``rate_fn`` on every membership
    change — while the engine asks each flow's once per distinct allocation,
    the first time the flow is offered it."""
    oracle_asked: dict[int, list[float]] = {}
    asked: dict[int, list[float]] = {}
    expected = replay(
        reference_link, policy_factory(), specs, rate_fns, bits_scale, oracle_asked
    )
    actual = replay(make_link, policy_factory(), specs, rate_fns, bits_scale, asked)
    assert actual == expected
    assert asked == {i: list(dict.fromkeys(calls)) for i, calls in oracle_asked.items()}
    return oracle_asked, asked


def make_channel():
    return WirelessChannel(
        distances_m=np.array([50.0, 80.0, 120.0, 200.0, 320.0, 500.0]),
        rng=np.random.default_rng(7),
    )


def allocator_policy(name):
    return as_share_policy(make_allocator(name, CAPACITY), make_channel())


def shannon_rate_fns(specs, fading):
    """What the runtime submits: one frozen-fading ``rate_bps`` partial per
    flow, the fading drawn from the hypothesis ``data`` object."""
    channel = make_channel()
    return [
        partial(
            channel.rate_bps,
            client=client if client is not None else 0,
            tx_power_dbm=channel.config.tx_power_dbm,
            fading=fading.draw(st.floats(min_value=0.01, max_value=4.0)),
        )
        for (_, _, _, _, client, _) in specs
    ]


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestDenseEngineMatchesPerFlowArming:
    @given(specs=FLOW_SPECS)
    @settings(max_examples=80, deadline=None)
    def test_equal_share(self, specs):
        assert_same_world(EqualShare, specs)

    @given(specs=FLOW_SPECS)
    @settings(max_examples=80, deadline=None)
    def test_nominal_share_including_oversubscription(self, specs):
        # nominals 1..30 over capacity 40: feasible and rescaled epochs
        assert_same_world(NominalShare, specs)

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    @pytest.mark.parametrize("make_link", [dense_link, default_link])
    @given(specs=FLOW_SPECS)
    @settings(max_examples=40, deadline=None)
    def test_allocator_share_policy(self, allocator, make_link, specs):
        assert_same_world(partial(allocator_policy, allocator), specs, make_link)

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    @given(specs=FLOW_SPECS, fading=st.data())
    @settings(max_examples=30, deadline=None)
    def test_allocator_share_policy_with_shannon_rates(
        self, allocator, specs, fading
    ):
        """What the runtime submits: frozen-fading ``rate_bps`` partials."""
        rate_fns = shannon_rate_fns(specs, fading)
        assert_same_world(
            partial(allocator_policy, allocator), specs, default_link, rate_fns,
            bits_scale=32.0,
        )


class TestRateTable:
    """A dense-engine flow remembers ``allocation → bit/s`` and asks its
    ``rate_fn`` only for an allocation it has not priced yet; nothing the
    engines must agree on may notice."""

    @given(specs=FLOW_SPECS)
    @settings(max_examples=60, deadline=None)
    def test_equal_share(self, specs):
        # identity / scaling / clamping / starving rate_fns, aborts, and
        # same-instant finish + submit + abort off the quarter grid
        assert_priced_once(EqualShare, specs)

    @given(specs=FLOW_SPECS)
    @settings(max_examples=60, deadline=None)
    def test_nominal_share_including_oversubscription(self, specs):
        assert_priced_once(NominalShare, specs)

    @pytest.mark.parametrize("allocator", ALLOCATORS)
    @given(specs=FLOW_SPECS, fading=st.data())
    @settings(max_examples=30, deadline=None)
    def test_allocator_share_policy_with_shannon_rates(self, allocator, specs, fading):
        rate_fns = shannon_rate_fns(specs, fading)
        assert_priced_once(
            partial(allocator_policy, allocator), specs, default_link, rate_fns,
            bits_scale=32.0,
        )

    def test_revisited_allocations_are_not_repriced(self):
        """Eight equal flows leaving one by one and a ninth arriving late:
        the oracle re-asks every survivor at every change, the engine asks
        only for a ``B/n`` the flow has not held before."""
        specs = [(0, 40 + 8 * i, None, scaling(2.0), i % 6, 10) for i in range(8)]
        specs.append((6, 400, None, scaling(0.5), 0, 10))
        oracle_asked, asked = assert_priced_once(EqualShare, specs)
        assert sum(map(len, asked.values())) < sum(map(len, oracle_asked.values()))
        assert all(len(calls) == len(set(calls)) for calls in asked.values())

    def test_same_instant_finish_and_submit(self):
        specs = [
            (0, 20, None, scaling(1.0), 0, 10),
            (1, 20, None, clamping(8.0), 1, 10),
            (1, 40, 2, starving(20.0), 2, 10),
        ]
        for policy in (EqualShare, NominalShare):
            assert_priced_once(policy, specs)


class TestExactTies:
    """Hand-built same-instant schedules (the grids above also hit these)."""

    def test_same_instant_finish_and_submit(self):
        # flow 0 alone: 10 bits at 40 bit/s ends at 0.25 — the instant
        # flows 1 and 2 are submitted.
        specs = [
            (0, 20, None, None, 0, 10),
            (1, 20, None, None, 1, 10),
            (1, 40, None, None, 2, 10),
        ]
        world = assert_same_world(EqualShare, specs)
        assert world["log"][0] == ("done", 0, (0.25).hex())

    def test_simultaneous_finishes_keep_submission_order(self):
        specs = [(0, 40, None, None, c, 10) for c in range(4)]
        world = assert_same_world(EqualShare, specs)
        assert [entry[1] for entry in world["log"]] == [0, 1, 2, 3]
        assert len({entry[2] for entry in world["log"]}) == 1

    def test_unchanged_rate_keeps_its_place_in_the_queue(self):
        """A clamped flow's rate survives every membership change, so its
        completion keeps the ticket it drew at submission — ahead of a
        deadline timeout created later for the same instant."""
        specs = [
            (0, 40, None, clamping(4.0), 0, 10),  # 20 bits at 4 bit/s: t=5.0
            (2, 400, 18, None, 1, 10),  # abort deadline 0.5 + 4.5 = 5.0
            (4, 400, None, None, 2, 10),
        ]
        for policy in (EqualShare, NominalShare):
            world = assert_same_world(policy, specs)
            at_five = [e[:2] for e in world["log"] if e[2] == (5.0).hex()]
            assert at_five == [("done", 0), ("abort", 1)]

    def test_late_head_keeps_the_ticket_it_was_priced_with(self):
        """Flow 1 is priced at t=0 but first *queued* at t≈1.2, once flow 0
        has left; it must still tie ahead of flow 2's abort deadline,
        which was created at t=0.5 — as its per-flow completion would."""
        specs = [
            (0, 40, None, None, 0, 10),
            (0, 40, None, clamping(4.0), 1, 10),  # 20 bits at 4 bit/s: t=5.0
            (2, 400, 18, None, 2, 10),  # abort deadline 0.5 + 4.5 = 5.0
        ]
        for policy in (EqualShare, NominalShare):
            world = assert_same_world(policy, specs)
            at_five = [e[:2] for e in world["log"] if e[2] == (5.0).hex()]
            assert at_five == [("done", 1), ("abort", 2)]

    def test_starved_flow_resumes_when_the_medium_clears(self):
        specs = [
            (0, 80, None, starving(20.0), 0, 10),
            (0, 40, None, None, 1, 10),
            (0, 40, None, None, 2, 10),
        ]
        world = assert_same_world(EqualShare, specs)
        assert [entry[1] for entry in world["log"]] == [1, 2, 0]
        assert world["stalled"] == 0

    def test_forever_starved_flow_stalls_identically(self):
        specs = [(0, 80, None, starving(100.0), 0, 10), (0, 40, None, None, 1, 10)]
        world = assert_same_world(EqualShare, specs)
        assert world["stalled"] == 1
