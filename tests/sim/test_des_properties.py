"""Property-based invariants of the DES kernel and the aggregation engine.

Hypothesis-driven checks of three guarantees the rest of the system
leans on:

* **determinism** — for a fixed workload the kernel resolves events in
  exactly the same order and at exactly the same times, run after run
  (ties break by insertion order, never by hash or allocation accident);
* **lower bound** — no staleness policy, straggler injection, or device
  contention can resolve a round *faster* than the analytic
  ``Stage.duration_s`` floor (transmissions priced with the whole medium,
  compute without slowdown);
* **staleness bound** — under ``bounded:K`` the staleness recorded for
  every commit never exceeds ``K``, for any unit count, round count, or
  per-unit-round duration profile.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.base import Activity, Stage
from repro.sim.runtime import ComputeDemand, Runtime
from repro.sim.server import (
    AggregationServer,
    BoundedStaleness,
    PolynomialStaleness,
    SyncBarrier,
    UnitRoundWork,
)

#: keep the suite fast — these are smoke-sized property sweeps
COMMON = dict(max_examples=30, deadline=None)

durations = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
flops = st.floats(
    min_value=1.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
slowdown_factors = st.floats(
    min_value=1.0, max_value=16.0, allow_nan=False, allow_infinity=False
)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@st.composite
def stage_workloads(draw):
    """A random one-stage workload: per-track compute/fixed activities."""
    num_tracks = draw(st.integers(min_value=1, max_value=4))
    tracks = []
    for t in range(num_tracks):
        acts = draw(
            st.lists(
                st.one_of(
                    durations,
                    st.tuples(flops, st.integers(0, 3)).map(
                        lambda p: ComputeDemand(p[0], 1e4, client=p[1])
                    ),
                ),
                min_size=1,
                max_size=5,
            )
        )
        tracks.append(acts)
    return tracks


def replay(tracks, slowdowns=None):
    """Resolve the workload on a fresh runtime; returns the trace log."""
    from repro.sim.trace import TraceRecorder

    stage = Stage("work")
    for t, demands in enumerate(tracks):
        for demand in demands:
            stage.add(f"track-{t}", Activity(demand, "client_compute", f"track-{t}"))
    runtime = Runtime()
    recorder = TraceRecorder()
    total = SyncBarrier().resolve_round(
        runtime, [stage], recorder, 0, compute_slowdown=slowdowns
    )
    log = [(e.start, e.end, e.actor) for e in recorder.events]
    return total, log


class TestDeterminism:
    @given(tracks=stage_workloads())
    @settings(**COMMON)
    def test_identical_workloads_replay_identically(self, tracks):
        assert replay(tracks) == replay(tracks)

    @given(tracks=stage_workloads(), factor=slowdown_factors)
    @settings(**COMMON)
    def test_determinism_holds_under_slowdowns(self, tracks, factor):
        slowdowns = {0: factor, 1: factor * 2}
        assert replay(tracks, slowdowns) == replay(tracks, slowdowns)


# ----------------------------------------------------------------------
# lower bound
# ----------------------------------------------------------------------
class TestLowerBound:
    @given(tracks=stage_workloads(), factor=slowdown_factors)
    @settings(**COMMON)
    def test_stage_floor_never_undercut(self, tracks, factor):
        """``Stage.duration_s`` is a true floor: straggler slowdowns and
        device serialization only ever push the resolved span up."""
        stage = Stage("work")
        for t, demands in enumerate(tracks):
            for demand in demands:
                stage.add(
                    f"track-{t}", Activity(demand, "client_compute", f"track-{t}")
                )
        runtime = Runtime()
        total = SyncBarrier().resolve_round(
            runtime, [stage], None, 0, compute_slowdown={0: factor, 2: factor}
        )
        assert total >= stage.duration_s * (1 - 1e-9)

    @given(
        profile=st.lists(
            st.lists(durations, min_size=1, max_size=3), min_size=1, max_size=4
        ),
        lag=st.integers(min_value=1, max_value=3),
    )
    @settings(**COMMON)
    def test_no_policy_undercuts_per_activity_floor(self, profile, lag):
        """Under any staleness policy each unit still needs at least the
        sum of its own activity floors — pipelines overlap, activities
        within one pipeline never do."""
        runtime = Runtime()
        policy = BoundedStaleness(lag)
        server = AggregationServer(
            runtime, policy, num_units=len(profile), total_weight=float(len(profile)),
            apply_update=lambda payload, alpha: None,
        )
        num_rounds = 2

        def work_fn(unit, round_index):
            acts = [
                Activity(d, "client_compute", f"unit-{unit}")
                for d in profile[unit]
            ]
            return UnitRoundWork(acts, payload=unit, weight=1.0)

        server.run(work_fn, num_rounds)
        floor = max(num_rounds * sum(ds) for ds in profile)
        assert runtime.now >= floor * (1 - 1e-9)


# ----------------------------------------------------------------------
# staleness bound
# ----------------------------------------------------------------------
@st.composite
def unit_speed_profiles(draw):
    """Per-unit, per-round durations for a synthetic async fleet."""
    num_units = draw(st.integers(min_value=2, max_value=5))
    num_rounds = draw(st.integers(min_value=1, max_value=5))
    table = [
        [draw(durations) for _ in range(num_rounds)] for _ in range(num_units)
    ]
    return table, num_rounds


def drive_server(policy, table, num_rounds, runtime=None):
    runtime = runtime or Runtime()
    server = AggregationServer(
        runtime,
        policy,
        num_units=len(table),
        total_weight=float(len(table)),
        apply_update=lambda payload, alpha: None,
    )

    def work_fn(unit, round_index):
        demand = table[unit][round_index]
        return UnitRoundWork(
            [Activity(demand, "client_compute", f"unit-{unit}")],
            payload=(unit, round_index),
            weight=1.0,
        )

    server.run(work_fn, num_rounds)
    return server


class TestStalenessBound:
    @given(profile=unit_speed_profiles(), lag=st.integers(min_value=1, max_value=4))
    @settings(**COMMON)
    def test_bounded_policy_never_exceeds_k(self, profile, lag):
        table, num_rounds = profile
        server = drive_server(BoundedStaleness(lag), table, num_rounds)
        assert len(server.updates) == len(table) * num_rounds
        assert all(u.staleness <= lag for u in server.updates)
        assert all(u.staleness >= 0 for u in server.updates)

    @given(profile=unit_speed_profiles())
    @settings(**COMMON)
    def test_unbounded_policy_staleness_at_most_rounds(self, profile):
        table, num_rounds = profile
        server = drive_server(PolynomialStaleness(), table, num_rounds)
        # Nobody can be more than the whole run ahead of anyone else.
        assert all(0 <= u.staleness < num_rounds for u in server.updates)

    @given(profile=unit_speed_profiles(), lag=st.integers(min_value=1, max_value=4))
    @settings(**COMMON)
    def test_engine_commit_log_deterministic(self, profile, lag):
        table, num_rounds = profile
        first = drive_server(BoundedStaleness(lag), table, num_rounds)
        second = drive_server(BoundedStaleness(lag), table, num_rounds)
        assert first.updates == second.updates

    @given(profile=unit_speed_profiles())
    @settings(**COMMON)
    def test_every_unit_completes_every_round(self, profile):
        table, num_rounds = profile
        server = drive_server(BoundedStaleness(1), table, num_rounds)
        assert server.completed == [num_rounds] * len(table)
