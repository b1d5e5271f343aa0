"""Property-based battery for the mid-activity fault model.

Four guarantees the failure injection leans on, hammered with
Hypothesis-generated churn schedules (example budgets come from the
``ci``/``weekly`` profiles registered in ``tests/conftest.py``):

* **aborted flows deliver nothing** — cancelling an in-flight transfer
  on the shared medium never fires its completion event, leaves no bytes
  delivered, and re-divides capacity over the survivors at that instant;
* **aborted compute frees its device** — a preempted job releases its
  capacity-1 FIFO :class:`~repro.sim.resources.Resource` slot, so the
  device is immediately grantable again;
* **bounded retries** — a track never re-attempts more than the
  configured ``max_retries``, under any churn schedule;
* **termination** — the simulation always runs to completion under
  arbitrary churn schedules, for both recovery modes and for the
  barrier-free aggregation engine (no retry loop, gate, or abort path
  can deadlock or livelock the kernel).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.dynamics import ClientDynamics, DynamicsConfig
from repro.schemes.base import Activity
from repro.sim.engine import Environment
from repro.sim.resources import FairShareLink
from repro.sim.runtime import ComputeDemand, Runtime, TrackRecovery
from repro.sim.server import AggregationServer, BoundedStaleness, UnitRoundWork
from repro.sim.trace import ABORT_RESOLUTIONS, TraceRecorder

churn_means = st.floats(
    min_value=0.05, max_value=5.0, allow_nan=False, allow_infinity=False
)
seeds = st.integers(min_value=0, max_value=2**20)
retry_budgets = st.integers(min_value=0, max_value=4)


def make_injector(uptime, downtime, seed, num_clients=4):
    """The failure source a mid-activity scheme installs: its dynamics."""
    return ClientDynamics(
        DynamicsConfig(
            churn_uptime_s=uptime,
            churn_downtime_s=downtime,
            failure_model="mid-activity",
            seed=seed,
        ),
        num_clients,
    )


def compute_track(num_activities, num_clients, seconds=0.4):
    """A relay-like track: one compute activity per client, round-robin."""
    return [
        Activity(
            ComputeDemand(flops=seconds * 1e4, flops_per_s=1e4, client=i % num_clients),
            "client_compute",
            f"client-{i % num_clients}",
        )
        for i in range(num_activities)
    ]


def run_one_track(runtime, activities, recorder, recovery):
    proc = runtime.env.process(
        runtime.run_track(activities, recorder, 0, None, recovery)
    )
    runtime.env.run(proc)
    return proc.value


# ----------------------------------------------------------------------
# aborted flows deliver nothing
# ----------------------------------------------------------------------
class TestLinkAbort:
    @given(
        bits=st.floats(min_value=100.0, max_value=1e6),
        frac=st.floats(min_value=0.05, max_value=0.95),
    )
    def test_aborted_flow_never_completes(self, bits, frac):
        env = Environment()
        link = FairShareLink(env, capacity_bps=1e3)
        done = link.transfer(bits)

        def aborter():
            yield env.timeout(bits / 1e3 * frac)
            remaining = link.abort(done)
            assert remaining is not None and remaining > 0.0

        env.process(aborter())
        env.run()
        assert not done.triggered
        assert link.active_flows == 0

    def test_abort_recomputes_shares_over_survivors(self):
        """Two equal flows at 500 bps each; aborting one at t=0.5 hands
        the survivor the full 1000 bps — it finishes at exactly 1.25."""
        env = Environment()
        link = FairShareLink(env, capacity_bps=1000.0)
        survivor = link.transfer(1000.0)
        victim = link.transfer(1000.0)
        finish = []
        survivor.add_callback(lambda _: finish.append(env.now))

        def aborter():
            yield env.timeout(0.5)
            # 500 bps × 0.5 s = 250 bits delivered; 750 remain undelivered.
            assert link.abort(victim) == 750.0

        env.process(aborter())
        env.run()
        assert not victim.triggered
        assert finish == [1.25]

    def test_abort_of_finished_flow_is_a_noop(self):
        env = Environment()
        link = FairShareLink(env, capacity_bps=1e3)
        done = link.transfer(100.0)
        env.run()
        assert done.triggered
        assert link.abort(done) is None

    @given(
        bits=st.lists(
            st.floats(min_value=100.0, max_value=1e4), min_size=2, max_size=5
        ),
        victim=st.integers(min_value=0, max_value=4),
    )
    def test_survivor_completions_stay_consistent(self, bits, victim):
        """Whatever flow is cancelled, every survivor still completes, no
        later than the no-abort serial bound (the abort can only free
        capacity; its stale scheduled completion pops as a no-op)."""
        victim %= len(bits)
        env = Environment()
        link = FairShareLink(env, capacity_bps=1e3)
        events = [link.transfer(b) for b in bits]
        finish: dict[int, float] = {}
        for i, event in enumerate(events):
            event.add_callback(lambda _, i=i: finish.setdefault(i, env.now))

        def aborter():
            yield env.timeout(min(bits) / 1e3 * 0.25)
            link.abort(events[victim])

        env.process(aborter())
        env.run()
        for i, event in enumerate(events):
            assert event.triggered == (i != victim)
        assert victim not in finish
        serial_bound = sum(bits) / 1e3
        assert all(t <= serial_bound + 1e-9 for t in finish.values())


# ----------------------------------------------------------------------
# aborted compute frees its device slot
# ----------------------------------------------------------------------
class _ScriptedFailure:
    """Injector stub: client 0 fails at a fixed instant, recovers later."""

    def __init__(self, fail_at: float, recover_at: float) -> None:
        self.fail_at = fail_at
        self.recover_at = recover_at

    def up_deadline(self, client: int, now: float) -> float:
        return self.fail_at if now < self.recover_at else float("inf")

    def recovery_s(self, client: int, now: float) -> float:
        return self.recover_at


class TestComputeAbort:
    @given(
        fail_frac=st.floats(min_value=0.05, max_value=0.95),
        budget=retry_budgets,
    )
    def test_aborted_compute_frees_the_device_slot(self, fail_frac, budget):
        runtime = Runtime()
        runtime.failure_injector = _ScriptedFailure(
            fail_at=fail_frac, recover_at=2.0
        )
        act = Activity(
            ComputeDemand(flops=1e4, flops_per_s=1e4, client=0),  # 1 s job
            "client_compute",
            "client-0",
        )
        recovery = TrackRecovery(
            resume_s=lambda c, now: 2.0, max_retries=budget, mode="retry"
        )
        recorder = TraceRecorder()
        outcome = run_one_track(runtime, [act], recorder, recovery)
        device = runtime.device(0)
        assert device.in_use == 0 and device.queued == 0
        assert outcome.aborts >= 1
        # After recovery at t=2 the deadline clears: the first retry runs
        # the job to completion whenever the budget allows one.
        assert outcome.completed == (budget >= 1)

    def test_preempted_job_runs_exactly_to_the_failure_instant(self):
        runtime = Runtime()
        runtime.failure_injector = _ScriptedFailure(fail_at=0.25, recover_at=0.5)
        act = Activity(
            ComputeDemand(flops=1e4, flops_per_s=1e4, client=0),
            "client_compute",
            "client-0",
        )
        recorder = TraceRecorder()
        recovery = TrackRecovery(resume_s=lambda c, n: 0.5, max_retries=1)
        outcome = run_one_track(runtime, [act], recorder, recovery)
        assert outcome.completed and outcome.retries == 1
        [abort] = recorder.aborts
        assert abort.time_s == 0.25  # cut at the exact toggle instant
        [retry] = recorder.retries
        assert retry.time_s == 0.5  # resumed at the recovery instant
        assert runtime.now == 1.5  # 0.5 wait + full 1 s re-run


# ----------------------------------------------------------------------
# bounded retries + abort accounting, real churn traces
# ----------------------------------------------------------------------
class TestRetryBudget:
    @given(
        uptime=churn_means,
        downtime=churn_means,
        seed=seeds,
        budget=retry_budgets,
        mode=st.sampled_from(["retry", "reroute"]),
    )
    def test_retries_never_exceed_budget(self, uptime, downtime, seed, budget, mode):
        runtime = Runtime()
        injector = make_injector(uptime, downtime, seed)
        runtime.failure_injector = injector
        recovery = TrackRecovery(
            resume_s=injector.recovery_s, max_retries=budget, mode=mode
        )
        recorder = TraceRecorder()
        outcome = run_one_track(
            runtime, compute_track(8, num_clients=4), recorder, recovery
        )
        assert outcome.retries <= budget
        assert len(recorder.retries) == outcome.retries
        assert all(1 <= e.attempt <= budget for e in recorder.retries)
        # Every abort resolves exactly once.
        assert all(e.resolution in ABORT_RESOLUTIONS for e in recorder.aborts)
        resolved = (
            outcome.retries
            + len(outcome.rerouted)
            + (1 if outcome.surrendered else 0)
        )
        assert outcome.aborts == len(recorder.aborts) == resolved

    def test_reroute_skips_mixed_client_relay_legs(self):
        """A relay demand whose legs touch the dead client must not be
        the reroute target — its dead leg would preempt again instantly,
        double-recording the reroute.  The jump lands on the next
        activity executable without the dead client, and the relay
        (the AP's cached-copy fallback) is skipped."""
        from repro.sim.runtime import TransmitDemand, TransmitLeg

        class _FailsClientZero:
            # Client 0 fails at t=0.1 and never recovers; client 1 is solid.
            def up_deadline(self, client, now):
                return 0.1 if client == 0 else float("inf")

            def recovery_s(self, client, now):
                return None

        runtime = Runtime(total_bandwidth_hz=1e3)
        runtime.failure_injector = _FailsClientZero()
        relay = TransmitDemand(
            legs=(
                TransmitLeg(nbits=100.0, client=0, rate_fn=lambda hz: hz),
                TransmitLeg(nbits=100.0, client=1, rate_fn=lambda hz: hz),
            ),
            nominal_hz=1e3,
            total_hz=1e3,
        )
        activities = [
            Activity(ComputeDemand(2e3, 1e4, client=0), "client_compute", "client-0"),
            Activity(relay, "model_relay", "client-0"),
            Activity(ComputeDemand(2e3, 1e4, client=1), "client_compute", "client-1"),
        ]
        recovery = TrackRecovery(
            resume_s=lambda c, now: None, max_retries=0, mode="reroute"
        )
        recorder = TraceRecorder()
        outcome = run_one_track(runtime, activities, recorder, recovery)
        assert outcome.rerouted == [0]
        assert outcome.aborts == 1 and outcome.completed
        # Only the live client's compute resolved after the reroute.
        assert [e.actor for e in recorder.events] == ["client-1"]

    @given(uptime=churn_means, downtime=churn_means, seed=seeds)
    def test_zero_budget_reroute_skips_every_dead_client(self, uptime, downtime, seed):
        runtime = Runtime()
        injector = make_injector(uptime, downtime, seed)
        runtime.failure_injector = injector
        recovery = TrackRecovery(
            resume_s=injector.recovery_s, max_retries=0, mode="reroute"
        )
        outcome = run_one_track(
            runtime, compute_track(8, num_clients=4), None, recovery
        )
        assert outcome.retries == 0
        assert len(set(outcome.rerouted)) == len(outcome.rerouted)


# ----------------------------------------------------------------------
# termination under arbitrary churn
# ----------------------------------------------------------------------
class TestTermination:
    @given(
        uptime=churn_means,
        downtime=churn_means,
        seed=seeds,
        budget=retry_budgets,
        mode=st.sampled_from(["retry", "reroute"]),
    )
    def test_single_track_always_terminates(self, uptime, downtime, seed, budget, mode):
        runtime = Runtime()
        injector = make_injector(uptime, downtime, seed)
        runtime.failure_injector = injector
        recovery = TrackRecovery(
            resume_s=injector.recovery_s, max_retries=budget, mode=mode
        )
        outcome = run_one_track(
            runtime, compute_track(6, num_clients=3), None, recovery
        )
        assert outcome is not None
        assert runtime.now < float("inf")

    @given(
        uptime=churn_means,
        downtime=churn_means,
        seed=seeds,
        lag=st.integers(min_value=1, max_value=3),
        budget=retry_budgets,
    )
    @settings(max_examples=20)
    def test_aggregation_engine_terminates_under_churn(
        self, uptime, downtime, seed, lag, budget
    ):
        """Barrier-free units with preemptible tracks: every unit finishes
        every round, surrendered rounds still advance the lag gate, and
        the server's abort log stays distinct from its commit log."""
        num_units, num_rounds = 3, 3
        runtime = Runtime()
        injector = make_injector(uptime, downtime, seed, num_clients=num_units)
        runtime.failure_injector = injector
        server = AggregationServer(
            runtime,
            BoundedStaleness(lag),
            num_units=num_units,
            total_weight=float(num_units),
            apply_update=lambda payload, alpha: None,
        )
        recovery = TrackRecovery(
            resume_s=injector.recovery_s, max_retries=budget, mode="retry"
        )

        def work_fn(unit, round_index):
            acts = [
                Activity(
                    ComputeDemand(flops=2e3, flops_per_s=1e4, client=unit),
                    "client_compute",
                    f"client-{unit}",
                )
                for _ in range(3)
            ]
            return UnitRoundWork(
                acts, payload=unit, weight=1.0, recovery=recovery
            )

        server.run(work_fn, num_rounds)
        assert server.completed == [num_rounds] * num_units
        surrendered = sum(1 for a in server.aborted if a.outcome == "surrender")
        assert len(server.updates) == num_units * num_rounds - surrendered
        assert all(u.staleness <= lag for u in server.updates)
