"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot trigger with callbacks and an optional
value.  Processes (generator coroutines, see :mod:`repro.sim.engine`)
yield events to suspend until they fire.  :class:`Timeout` is an event
pre-scheduled at ``now + delay``; :class:`AllOf` / :class:`AnyOf` compose
events for barrier and race synchronization — GSFL's aggregation barrier
("after all groups have completed the model training process") is an
``AllOf`` over per-group completion events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Environment

__all__ = ["Event", "Timeout", "AllOf", "AnyOf"]


class Event:
    """A one-shot occurrence in simulated time.

    A scheduled event may be *cancelled* via
    :meth:`~repro.sim.engine.Environment.cancel`: its queue entry is
    skipped (never fired) and no longer counted as pending.  This is how
    the shared-link model retires a stale completion when a flow's rate
    changes, instead of leaving dead entries to accumulate in the heap.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.triggered = False
        self.cancelled = False
        #: set by Environment._schedule; cancel() is a no-op before then
        self.scheduled = False
        self.value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event immediately, passing ``value`` to waiters."""
        if self.triggered:
            raise RuntimeError("event already triggered")
        if self.cancelled:
            raise RuntimeError("event was cancelled")
        self.triggered = True
        self.value = value
        for callback in self._callbacks:
            callback(self)
        self._callbacks.clear()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback``; runs immediately if already triggered."""
        if self.triggered:
            callback(self)
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """Event that fires ``delay`` time units after creation (``inf``: never
    before any deadline; a ``run()`` that drains the queue fires it last)."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # NaN too: it would sit anywhere in the heap
            raise ValueError(f"delay must be >= 0, got {delay}")
        super().__init__(env)
        self.delay = delay
        env._schedule(env.now + delay, self, value)


class _Condition(Event):
    """Base for AllOf/AnyOf composition."""

    def __init__(self, env: "Environment", events: list[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            # Trivially satisfied; fire on the next kernel step.
            env._schedule(env.now, self, [])
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value is the list of values."""

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if all(e.triggered for e in self.events):
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Fires when the first child fires; value is ``(index, value)``."""

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        index = self.events.index(event)
        self.succeed((index, event.value))
