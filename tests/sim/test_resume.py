"""Partial-transfer resume semantics for retried uploads.

``FairShareLink.abort()`` settles the service an aborted flow already
received; the retry path must *use* that settlement: a re-attempted
:class:`TransmitDemand` leg submits exactly ``bits_total -
bits_delivered`` to the medium, and legs a previous attempt completed are
never re-sent.  (Before this fix a retried upload restarted from zero
bytes — the settled service evaporated.)

Compute demands deliberately keep restart-from-scratch semantics: a
preempted job runs to the failure instant and its work is abandoned
(pinned by ``tests/sim/test_fault_injection.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.schemes.base import Activity
from repro.sim.runtime import Runtime, TrackRecovery, TransmitDemand, TransmitLeg
from repro.sim.trace import TraceRecorder


class _ScriptedFailure:
    """Client 0 fails at ``fail_at`` and is back up from ``recover_at`` on."""

    def __init__(self, fail_at: float, recover_at: float) -> None:
        self.fail_at = fail_at
        self.recover_at = recover_at

    def up_deadline(self, client: int, now: float) -> float:
        return self.fail_at if now < self.recover_at else float("inf")

    def recovery_s(self, client: int, now: float) -> float:
        return self.recover_at


def instrumented_runtime(capacity_bps: float, injector) -> tuple[Runtime, list[float]]:
    """Runtime whose medium logs every submitted flow size."""
    runtime = Runtime(total_bandwidth_hz=capacity_bps)
    runtime.failure_injector = injector
    submitted: list[float] = []
    original = runtime.medium.transfer

    def logging_transfer(nbits, **kwargs):
        submitted.append(nbits)
        return original(nbits, **kwargs)

    runtime.medium.transfer = logging_transfer
    return runtime, submitted


def transmit_activity(legs_bits: list[float], hz: float = 1e3) -> Activity:
    demand = TransmitDemand(
        legs=tuple(
            TransmitLeg(nbits=bits, client=0, rate_fn=lambda allocated: allocated)
            for bits in legs_bits
        ),
        nominal_hz=hz,
        total_hz=hz,
    )
    return Activity(demand, "model_upload", "client-0")


def run_one_track(runtime, activities, recorder, recovery):
    proc = runtime.env.process(
        runtime.run_track(activities, recorder, 0, None, recovery)
    )
    runtime.env.run(proc)
    return proc.value


class TestResumeSemantics:
    def test_retried_leg_transmits_exactly_the_remainder(self):
        """1000 bits at 1000 bps, cut at t=0.4: 400 bits are settled, the
        retry at t=0.5 submits exactly 600 bits and finishes at 1.1 s
        (a from-zero restart would finish at 1.5 s)."""
        runtime, submitted = instrumented_runtime(
            1e3, _ScriptedFailure(fail_at=0.4, recover_at=0.5)
        )
        recovery = TrackRecovery(resume_s=lambda c, n: 0.5, max_retries=1)
        recorder = TraceRecorder()
        outcome = run_one_track(
            runtime, [transmit_activity([1000.0])], recorder, recovery
        )
        assert outcome.completed and outcome.retries == 1
        assert submitted == [1000.0, 600.0]
        assert runtime.now == pytest.approx(1.1)
        [abort] = recorder.aborts
        assert abort.time_s == pytest.approx(0.4)

    def test_completed_legs_are_not_resent(self):
        """Two-leg relay cut during the second leg: the retry resumes at
        leg 2's remainder; leg 1 is never on the air again."""
        # Leg 1: 300 bits -> done at 0.3.  Leg 2: 500 bits, cut at 0.4
        # with 100 bits delivered; retry sends the remaining 400.
        runtime, submitted = instrumented_runtime(
            1e3, _ScriptedFailure(fail_at=0.4, recover_at=0.6)
        )
        recovery = TrackRecovery(resume_s=lambda c, n: 0.6, max_retries=1)
        outcome = run_one_track(
            runtime, [transmit_activity([300.0, 500.0])], None, recovery
        )
        assert outcome.completed and outcome.retries == 1
        assert submitted == [300.0, 500.0, 400.0]
        assert runtime.now == pytest.approx(1.0)  # 0.6 resume + 0.4 s remainder

    def test_progress_does_not_leak_across_activities(self):
        """Resume state is per-activity: after a resumed activity
        completes, the next activity's legs start from zero."""
        runtime, submitted = instrumented_runtime(
            1e3, _ScriptedFailure(fail_at=0.4, recover_at=0.5)
        )
        recovery = TrackRecovery(resume_s=lambda c, n: 0.5, max_retries=2)
        activities = [transmit_activity([1000.0]), transmit_activity([200.0])]
        outcome = run_one_track(runtime, activities, None, recovery)
        assert outcome.completed
        assert submitted == [1000.0, 600.0, 200.0]

    @given(
        bits=st.floats(min_value=200.0, max_value=1e5),
        frac=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_retried_flow_transmits_bits_total_minus_bits_delivered(self, bits, frac):
        """Property: whatever the cut instant, the resumed submission is
        exactly ``bits_total - bits_delivered`` as settled by the medium."""
        capacity = 1e3
        fail_at = bits / capacity * frac
        recover_at = fail_at + 0.25
        runtime, submitted = instrumented_runtime(
            capacity, _ScriptedFailure(fail_at=fail_at, recover_at=recover_at)
        )
        recovery = TrackRecovery(resume_s=lambda c, n: recover_at, max_retries=1)
        outcome = run_one_track(
            runtime, [transmit_activity([bits])], None, recovery
        )
        assert outcome.completed and outcome.retries == 1
        assert len(submitted) == 2
        delivered = fail_at * capacity
        assert submitted[0] == pytest.approx(bits)
        assert submitted[1] == pytest.approx(bits - delivered)
        # Total air time = full payload / capacity, split across attempts.
        assert runtime.now == pytest.approx(recover_at + (bits - delivered) / capacity)

    def test_unset_injector_path_untouched(self):
        """Without an injector the medium sees one submission per leg of
        the full size — the resume plumbing costs nothing when disabled."""
        runtime = Runtime(total_bandwidth_hz=1e3)
        submitted: list[float] = []
        original = runtime.medium.transfer

        def logging_transfer(nbits, **kwargs):
            submitted.append(nbits)
            return original(nbits, **kwargs)

        runtime.medium.transfer = logging_transfer
        outcome = run_one_track(
            runtime, [transmit_activity([300.0, 500.0])], None, None
        )
        assert outcome.completed
        assert submitted == [300.0, 500.0]
        assert runtime.now == pytest.approx(0.8)


class TestDeadlineTie:
    """The exact tie between a leg's completion and its client's deadline.

    Same-instant events fire in queue-ticket order.  A flow priced once
    (the static engine, or a dense link nobody else touches) holds the
    ticket it drew at submission — before the deadline timeout exists —
    and completes.  On a contended link any re-rate draws the completion
    a fresh, later ticket, so the deadline fires first: the leg aborts
    with nothing (or float residue) left and the retry closes it.  Either
    way the outcome is deterministic and no bit is lost or re-sent.
    """

    NBITS = 1000.0

    @staticmethod
    def _runtime(deadline: float, contended: bool) -> Runtime:
        from repro.sim.resources import EqualShare

        # Legs carry a rate_fn, so EqualShare resolves on the dense engine.
        runtime = Runtime(
            total_bandwidth_hz=900.0,
            share_policy=EqualShare() if contended else None,
        )
        runtime.failure_injector = _ScriptedFailure(deadline, deadline)
        return runtime

    def _race(self, deadline: float, background: tuple[float, ...]):
        """One preemptible leg against ``background`` flows; returns
        ``(finish_or_abort_instant, preempted, progress, undelivered)``."""
        from repro.sim.runtime import Preemption, _TransferProgress

        runtime = self._runtime(deadline, contended=True)
        aborted: list[float] = []
        original = runtime.medium.abort

        def logging_abort(done):
            aborted.append(original(done))
            return aborted[-1]

        runtime.medium.abort = logging_abort
        for bits in background:
            runtime.medium.transfer(bits, rate_fn=lambda hz: hz)
        activity = transmit_activity([self.NBITS], hz=900.0)
        progress = _TransferProgress()
        preempted: list[bool] = []

        def leg():
            try:
                yield from runtime._transfer_preemptible(
                    activity.demand.legs[0], activity.demand,
                    runtime.failure_injector, progress,
                )
                preempted.append(False)
            except Preemption:
                preempted.append(True)

        runtime.env.run(runtime.env.process(leg()))
        return runtime.now, preempted[0], progress, aborted

    def test_static_engine_tie_goes_to_completion(self):
        runtime = self._runtime(deadline=1.0, contended=False)
        outcome = run_one_track(
            runtime, [transmit_activity([900.0], hz=900.0)], None, None
        )
        assert runtime.now == 1.0
        assert outcome.completed and outcome.aborts == 0

    def test_untouched_dense_flow_tie_goes_to_completion(self):
        finish, _, _, _ = self._race(float("inf"), background=())
        at, preempted, progress, aborted = self._race(finish, background=())
        assert at == finish and not preempted and not aborted
        assert progress.legs_done == 1

    def test_rerated_dense_flow_tie_goes_to_the_deadline_and_conserves_bits(self):
        background = (100.0, 170.0)  # thirds of 900 bit/s: inexact shares
        finish, preempted, _, _ = self._race(float("inf"), background)
        assert not preempted
        first = self._race(finish, background)
        at, preempted, progress, aborted = first
        # The re-rated completion queued behind the deadline: abort wins.
        assert at == finish and preempted
        [undelivered] = aborted
        assert 0.0 <= undelivered < 1e-6
        assert progress.bits_delivered + undelivered == self.NBITS
        assert progress.legs_done == 0
        # Stable: the same race resolves the same way, bit for bit.
        again = self._race(finish, background)
        assert (again[0], again[1], again[3]) == (at, preempted, aborted)
        assert again[2] == progress

    def test_track_retry_closes_the_tied_leg_without_resending(self):
        background = (100.0, 170.0)
        finish, _, _, _ = self._race(float("inf"), background)
        runtime = self._runtime(finish, contended=True)
        submitted: list[float] = []
        original = runtime.medium.transfer

        def logging_transfer(nbits, **kwargs):
            submitted.append(nbits)
            return original(nbits, **kwargs)

        for bits in background:
            runtime.medium.transfer(bits, rate_fn=lambda hz: hz)
        runtime.medium.transfer = logging_transfer
        recovery = TrackRecovery(resume_s=lambda c, n: finish, max_retries=1)
        outcome = run_one_track(
            runtime, [transmit_activity([self.NBITS], hz=900.0)], None, recovery
        )
        assert outcome.completed and outcome.aborts == 1 and outcome.retries == 1
        assert submitted[0] == self.NBITS
        assert sum(submitted[1:]) < 1e-6  # at most the float residue
        assert runtime.now == pytest.approx(finish)
