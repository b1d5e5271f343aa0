"""Discrete-event kernel tests: clock, ordering, processes, conditions."""

from __future__ import annotations

import pytest

from repro.sim.engine import Environment
from repro.sim.events import AllOf, AnyOf, Event, Timeout


class TestEventPrimitives:
    def test_succeed_fires_callbacks_once(self):
        env = Environment()
        ev = env.event()
        hits = []
        ev.add_callback(lambda e: hits.append(e.value))
        ev.succeed("x")
        assert hits == ["x"]
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_callback_after_trigger_runs_immediately(self):
        env = Environment()
        ev = env.event()
        ev.succeed(7)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == [7]

    def test_timeout_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_nan_delay_rejected(self):
        """A NaN deadline compares false with everything, so ``heapq`` would
        order it anywhere and the clock could read NaN."""
        env = Environment()
        with pytest.raises(ValueError, match="nan"):
            env.timeout(float("nan"))
        assert env.pending == 0

    def test_schedule_at_nan_rejected(self):
        env = Environment()
        with pytest.raises(RuntimeError, match="nan"):
            env._schedule(float("nan"), Event(env), None)

    @pytest.mark.parametrize("until", [2.0, float("nan")])
    def test_run_until_the_past_or_nan_rejected(self, until):
        """A deadline behind the clock used to set it back to the deadline,
        with later events still queued; NaN drained the whole queue."""
        env = Environment()
        env.timeout(5.0)
        env.timeout(10.0)
        env.run(until=6.0)
        with pytest.raises(ValueError, match="clock reads 6.0"):
            env.run(until=until)
        assert env.now == 6.0 and env.pending == 1
        env.run(until=6.0)  # the present is a no-op
        assert env.now == 6.0

    def test_infinite_delay_means_never(self):
        env = Environment()
        never = env.timeout(float("inf"))
        env.timeout(1.0)
        env.run(until=5.0)
        assert env.now == 5.0 and not never.triggered

    def test_a_draining_run_pops_an_infinite_delay_last(self):
        """Without a deadline ``run()`` empties the queue, so an ``inf``
        timeout fires after every finite one, with the clock at ``inf``."""
        env = Environment()
        fired = []
        env.timeout(float("inf")).add_callback(lambda _: fired.append(env.now))
        env.timeout(1.0).add_callback(lambda _: fired.append(env.now))
        env.run()
        assert fired == [1.0, float("inf")] and env.pending == 0


class TestEnvironment:
    def test_clock_advances_in_event_order(self):
        env = Environment()
        order = []

        def p(name, delay):
            yield env.timeout(delay)
            order.append((name, env.now))

        env.process(p("late", 5.0))
        env.process(p("early", 1.0))
        env.run()
        assert order == [("early", 1.0), ("late", 5.0)]

    def test_simultaneous_events_fire_in_insertion_order(self):
        env = Environment()
        order = []

        def p(name):
            yield env.timeout(1.0)
            order.append(name)

        for name in "abc":
            env.process(p(name))
        env.run()
        assert order == ["a", "b", "c"]

    def test_run_until_deadline(self):
        env = Environment()
        fired = []

        def p():
            yield env.timeout(10.0)
            fired.append(True)

        env.process(p())
        env.run(until=5.0)
        assert env.now == 5.0 and not fired
        env.run()
        assert fired

    def test_run_until_event(self):
        env = Environment()

        def fast():
            yield env.timeout(1.0)
            return "done"

        def slow():
            yield env.timeout(100.0)

        fast_proc = env.process(fast())
        env.process(slow())
        env.run(until=fast_proc)
        assert env.now == 1.0
        assert fast_proc.value == "done"

    def test_run_until_never_fired_event_raises(self):
        env = Environment()
        orphan = env.event()
        with pytest.raises(RuntimeError, match="drained"):
            env.run(until=orphan)

    def test_cannot_schedule_in_past(self):
        env = Environment()

        def p():
            yield env.timeout(5.0)

        env.process(p())
        env.run()
        with pytest.raises(RuntimeError):
            env._schedule(1.0, env.event(), None)

    def test_process_return_value_propagates(self):
        env = Environment()

        def child():
            yield env.timeout(2.0)
            return 42

        def parent():
            result = yield env.process(child())
            return result + 1

        proc = env.process(parent())
        env.run()
        assert proc.value == 43

    def test_process_must_yield_events(self):
        env = Environment()

        def bad():
            yield "not an event"

        env.process(bad())
        with pytest.raises(TypeError, match="yield"):
            env.run()

    def test_nested_fork_join(self):
        env = Environment()

        def worker(d):
            yield env.timeout(d)
            return d

        def parent():
            procs = [env.process(worker(d)) for d in (3.0, 1.0, 2.0)]
            results = yield env.all_of(procs)
            return results

        proc = env.process(parent())
        env.run()
        assert proc.value == [3.0, 1.0, 2.0]
        assert env.now == 3.0


class TestConditions:
    def test_all_of_waits_for_slowest(self):
        env = Environment()
        barrier = env.all_of([env.timeout(1.0, "a"), env.timeout(4.0, "b")])
        env.run(until=barrier)
        assert env.now == 4.0
        assert barrier.value == ["a", "b"]

    def test_any_of_fires_on_first(self):
        env = Environment()
        race = env.any_of([env.timeout(3.0, "slow"), env.timeout(1.0, "fast")])
        env.run(until=race)
        assert env.now == 1.0
        assert race.value == (1, "fast")

    def test_empty_all_of_fires_immediately(self):
        env = Environment()
        barrier = env.all_of([])
        env.run(until=barrier)
        assert env.now == 0.0

    def test_all_of_with_pretriggered_events(self):
        env = Environment()
        done = env.event()
        done.succeed("pre")
        barrier = env.all_of([done, env.timeout(2.0, "late")])
        env.run(until=barrier)
        assert barrier.value == ["pre", "late"]


class TestLazyCancellation:
    """Cancelled events never fire and never bloat the queue."""

    def test_cancelled_timeout_never_fires(self):
        env = Environment()
        log = []
        doomed = env.timeout(1.0)
        doomed.add_callback(lambda ev: log.append("doomed"))
        survivor = env.timeout(2.0)
        survivor.add_callback(lambda ev: log.append("survivor"))
        env.cancel(doomed)
        env.run()
        assert log == ["survivor"]
        assert env.now == 2.0
        assert not doomed.triggered

    def test_pending_counts_live_entries_only(self):
        env = Environment()
        events = [env.timeout(float(i + 1)) for i in range(10)]
        assert env.pending == 10
        for ev in events[:4]:
            env.cancel(ev)
        assert env.pending == 6
        env.run()
        assert env.pending == 0
        assert env.events_fired == 6

    def test_cancel_is_idempotent_and_noop_after_trigger(self):
        env = Environment()
        fired = env.timeout(1.0)
        env.run()
        assert fired.triggered
        env.cancel(fired)  # no-op: already fired
        assert env.pending == 0
        fresh = env.timeout(1.0)
        env.cancel(fresh)
        env.cancel(fresh)  # no-op: already cancelled
        assert env.pending == 0

    def test_cancel_unscheduled_event_is_noop(self):
        # A bare event was never scheduled: cancelling it must not skew
        # the live-entry accounting, and it must stay usable.
        env = Environment()
        env.timeout(1.0)
        unscheduled = env.event()
        # repro: disable=SIM001 (deliberately exercises the cancel-unscheduled no-op guard)
        env.cancel(unscheduled)
        assert env.pending == 1
        assert not unscheduled.cancelled
        # repro: disable=SIM001 (the no-op cancel must leave the event usable)
        unscheduled.succeed("still fine")
        assert unscheduled.value == "still fine"
        env.run()
        assert env.pending == 0
        assert env.peak_pending == 1

    def test_step_on_empty_queue_raises_clear_error(self):
        env = Environment()
        with pytest.raises(RuntimeError, match="empty"):
            env.step()

    def test_step_skims_cancelled_entries(self):
        # Direct step() callers must neither fire a lazily-cancelled
        # head nor hit IndexError on a queue of only-cancelled entries.
        env = Environment()
        env.cancel(env.timeout(1.0))
        survivor = env.timeout(2.0)
        env.step()
        assert survivor.triggered and env.now == 2.0
        env.cancel(env.timeout(3.0))
        with pytest.raises(RuntimeError, match="empty"):
            env.step()

    def test_succeed_on_cancelled_event_raises(self):
        env = Environment()
        ev = env.timeout(1.0)
        env.cancel(ev)
        with pytest.raises(RuntimeError, match="cancelled"):
            # repro: disable=SIM001 (deliberately exercises the succeed-after-cancel runtime guard)
            ev.succeed()

    def test_run_until_deadline_skips_cancelled_head(self):
        # A cancelled head entry beyond the deadline must not end the
        # run early or advance the clock past `until`.
        env = Environment()
        log = []
        far = env.timeout(10.0)
        near = env.timeout(1.0)
        near.add_callback(lambda ev: log.append(env.now))
        env.cancel(far)
        env.run(until=5.0)
        assert log == [1.0]
        assert env.now == 5.0

    def test_run_until_event_with_cancelled_queue_deadlocks(self):
        env = Environment()
        target = env.event()
        lone = env.timeout(1.0)
        env.cancel(lone)
        with pytest.raises(RuntimeError, match="drained"):
            env.run(until=target)

    def test_compaction_bounds_queue_length(self):
        env = Environment()
        keeper = env.timeout(1e9)
        for i in range(5000):
            env.cancel(env.timeout(float(i + 1)))
        # Dead entries dominated repeatedly: compaction must have kept
        # the physical heap near the live population, not at 5001.
        assert env.pending == 1
        assert len(env._queue) <= Environment._COMPACT_FLOOR + 1
        env.run()
        assert env.now == 1e9
        assert keeper.triggered

    def test_peak_pending_tracks_high_water_mark(self):
        env = Environment()
        evs = [env.timeout(1.0) for _ in range(7)]
        for ev in evs:
            env.cancel(ev)
        env.timeout(2.0)
        env.run()
        assert env.peak_pending == 7
