"""Discrete-event simulation kernel.

A minimal, deterministic, heap-driven event loop in the style of SimPy:
processes are Python generators that ``yield`` :class:`~repro.sim.events.Event`
objects to suspend; the kernel resumes them (sending the event's value)
when the event fires.  Ties in simulated time break by insertion order,
so runs are fully reproducible.

Example
-------
>>> env = Environment()
>>> log = []
>>> def worker(env, name, delay):
...     yield env.timeout(delay)
...     log.append((env.now, name))
>>> _ = env.process(worker(env, "a", 2.0))
>>> _ = env.process(worker(env, "b", 1.0))
>>> env.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Generator

from repro.sim.events import AllOf, AnyOf, Event, Timeout

__all__ = ["Environment", "Process"]


class Process(Event):
    """A running generator coroutine; itself an event firing on return.

    The generator's ``return`` value becomes the process event's value, so
    processes can wait on each other (fork/join).
    """

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        super().__init__(env)
        self._generator = generator
        # Kick off on the next kernel step at current time.
        kickoff = Event(env)
        kickoff.add_callback(self._resume)
        env._schedule(env.now, kickoff, None)

    def _resume(self, event: Event) -> None:
        try:
            target = self._generator.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded {type(target).__name__}; processes must yield Event"
            )
        target.add_callback(self._resume)


class Environment:
    """Simulation environment: clock + event queue + process spawner.

    Scheduled events support **lazy cancellation**: :meth:`cancel` marks
    the event dead without an O(n) heap removal; dead entries are skipped
    (and discarded) when they surface at the head of the queue, and the
    heap is compacted wholesale once dead entries outnumber live ones, so
    long churny runs do not accumulate stale completions unboundedly.
    :attr:`pending` counts live entries only.
    """

    #: dead entries may outnumber live ones by this factor (and the queue
    #: must exceed the floor) before a full compaction pass runs
    _COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event, Any]] = []
        self._counter = itertools.count()
        self._live = 0
        #: total events fired by :meth:`step` (scale-bench throughput)
        self.events_fired: int = 0
        #: high-water mark of live scheduled entries
        self.peak_pending: int = 0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def _reserve(self) -> int:
        """Claim the next insertion-order ticket without queueing anything.

        Passed to :meth:`_schedule` later, the entry ties exactly as if it
        had been pushed now — the shared link tickets every flow when its
        rate changes but queues only the earliest completion.
        """
        return next(self._counter)

    def _schedule(
        self, at: float, event: Event, value: Any, seq: int | None = None
    ) -> None:
        if at < self.now:
            raise RuntimeError(f"cannot schedule in the past ({at} < {self.now})")
        if seq is None:
            seq = next(self._counter)
        heapq.heappush(self._queue, (at, seq, event, value))
        event.scheduled = True
        self._live += 1
        if self._live > self.peak_pending:
            self.peak_pending = self._live

    def cancel(self, event: Event) -> None:
        """Lazily cancel a scheduled, not-yet-fired event.

        The event will never fire; its queue entry is skipped when it
        reaches the head (or dropped by compaction before that).
        Cancelling an already-triggered, already-cancelled, or
        never-scheduled event is a no-op, so callers need not track
        whether a completion raced them (and a cancel on an unscheduled
        event cannot skew the live-entry accounting).
        """
        if event.triggered or event.cancelled or not event.scheduled:
            return
        event.cancelled = True
        self._live -= 1
        if (
            len(self._queue) > self._COMPACT_FLOOR
            and self._live * 2 < len(self._queue)
        ):
            self._queue = [e for e in self._queue if not e[2].cancelled]
            heapq.heapify(self._queue)

    def _skim(self) -> None:
        """Drop cancelled entries from the head of the queue."""
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)

    def event(self) -> Event:
        """Create an untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Spawn a process; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> AllOf:
        """Barrier over ``events``."""
        return AllOf(self, events)

    def any_of(self, events: list[Event]) -> AnyOf:
        """Race over ``events``."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Pop and fire the next live scheduled event.

        Lazily-cancelled entries at the head are skimmed first, so
        direct callers cannot trip over them; raises a clear
        :class:`RuntimeError` (not ``IndexError``) when no live entry
        remains.
        """
        self._skim()
        if not self._queue:
            raise RuntimeError("cannot step(): event queue is empty")
        at, _, event, value = heapq.heappop(self._queue)
        self.now = at
        self._live -= 1
        if not event.triggered:
            self.events_fired += 1
            event.succeed(value)

    def run(self, until: float | Event | None = None) -> None:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be a simulated-time deadline (the clock stops exactly
        there), an :class:`Event` (stop once it has triggered), or ``None``
        (drain everything).
        """
        if isinstance(until, Event):
            while not until.triggered:
                self._skim()
                if not self._queue:
                    raise RuntimeError(
                        "event queue drained before the awaited event triggered "
                        "(deadlocked process or missing trigger)"
                    )
                self.step()
            return
        while True:
            self._skim()
            if not self._queue:
                break
            if until is not None and self._queue[0][0] > until:
                self.now = until
                return
            self.step()
        if until is not None:
            self.now = max(self.now, until)

    @property
    def pending(self) -> int:
        """Number of live scheduled (not yet fired, not cancelled) entries."""
        return self._live
