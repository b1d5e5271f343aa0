"""Latency trace recording.

Every simulated activity (computation, transmission, waiting, aggregation)
is logged as a :class:`TraceEvent`.  The per-phase/per-actor aggregations
drive the latency-breakdown benchmark and make the simulator auditable:
the sum of a round's critical-path events must equal the round latency.

Under the mid-activity failure model the recorder additionally logs every
preemption as an :class:`AbortEvent` (with its retry/reroute/surrender
resolution) and every recovery re-attempt as a :class:`RetryEvent` —
the ``activity_abort`` / ``retry`` rows of the JSONL trace export.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.devtools.trace_schema import validate_row

__all__ = [
    "TraceEvent",
    "AbortEvent",
    "RetryEvent",
    "RegroupEvent",
    "TraceRecorder",
    "PHASES",
    "ABORT_RESOLUTIONS",
]

#: canonical phase names used across the schemes
PHASES = (
    "model_distribution",
    "client_compute",
    "uplink_smashed",
    "server_compute",
    "downlink_gradient",
    "model_relay",
    "model_upload",
    "model_download",
    "aggregation",
    "data_upload",
    "encode",
    "decode",
    "wait",
)

#: how a preempted activity was resolved (see ``TrackRecovery``)
ABORT_RESOLUTIONS = ("retry", "reroute", "surrender")


def _validated(rows: "Iterable[dict[str, object]]") -> "Iterator[dict[str, object]]":
    """Yield each rendered row once it matches the canonical trace-schema
    registry, so a caller holds one row at a time."""
    for row in rows:
        validate_row(row)
        yield row


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One timed activity in the simulation."""

    start: float
    end: float
    phase: str
    actor: str
    round_index: int
    nbytes: int = 0
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"event ends before it starts: {self}")


@dataclass(frozen=True, slots=True)
class AbortEvent:
    """One mid-activity preemption: the activity that started at
    ``start`` was cut short at ``time_s`` by ``client`` failing, and the
    track resolved it as ``resolution`` (retry / reroute / surrender)."""

    start: float
    time_s: float
    phase: str
    actor: str
    round_index: int
    client: int
    resolution: str

    def __post_init__(self) -> None:
        if self.time_s < self.start:
            raise ValueError(f"abort precedes the activity start: {self}")


@dataclass(frozen=True, slots=True)
class RetryEvent:
    """One recovery re-attempt: ``actor`` re-runs its aborted activity at
    ``time_s`` (after waiting out ``client``'s down-window); ``attempt``
    counts re-attempts within the track (1-based, bounded by the retry
    budget)."""

    time_s: float
    actor: str
    round_index: int
    client: int
    attempt: int


@dataclass(frozen=True, slots=True)
class RegroupEvent:
    """One between-round fleet re-partition: ``policy`` produced ``groups``
    at the start of ``round_index`` (``changed`` is ``False`` when the
    policy saw no signal and returned the partition untouched)."""

    time_s: float
    round_index: int
    policy: str
    groups: tuple[tuple[int, ...], ...]
    changed: bool


class TraceRecorder:
    """Accumulates :class:`TraceEvent` rows with cheap aggregation helpers."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.aborts: list[AbortEvent] = []
        self.retries: list[RetryEvent] = []
        self.regroups: list[RegroupEvent] = []

    def record(
        self,
        start: float,
        end: float,
        phase: str,
        actor: str,
        round_index: int,
        nbytes: int = 0,
        detail: str = "",
    ) -> TraceEvent:
        """Append one event (phase must be a canonical phase name)."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        event = TraceEvent(start, end, phase, actor, round_index, nbytes, detail)
        self.events.append(event)
        return event

    def record_abort(
        self,
        start: float,
        time_s: float,
        phase: str,
        actor: str,
        round_index: int,
        client: int,
        resolution: str,
    ) -> AbortEvent:
        """Append one preemption (phase and resolution must be canonical)."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}; expected one of {PHASES}")
        if resolution not in ABORT_RESOLUTIONS:
            raise ValueError(
                f"unknown abort resolution {resolution!r}; "
                f"expected one of {ABORT_RESOLUTIONS}"
            )
        event = AbortEvent(start, time_s, phase, actor, round_index, client, resolution)
        self.aborts.append(event)
        return event

    def record_retry(
        self, time_s: float, actor: str, round_index: int, client: int, attempt: int
    ) -> RetryEvent:
        """Append one recovery re-attempt."""
        event = RetryEvent(time_s, actor, round_index, client, attempt)
        self.retries.append(event)
        return event

    def record_regroup(
        self,
        time_s: float,
        round_index: int,
        policy: str,
        groups: "list[list[int]]",
        changed: bool,
    ) -> RegroupEvent:
        """Append one between-round re-partition (the ``regroup`` JSONL row)."""
        event = RegroupEvent(
            time_s,
            round_index,
            policy,
            tuple(tuple(g) for g in groups),
            changed,
        )
        self.regroups.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # aggregations
    # ------------------------------------------------------------------
    def total_time_by_phase(self) -> dict[str, float]:
        """Summed durations per phase (overlapping events both count)."""
        totals: dict[str, float] = defaultdict(float)
        for event in self.events:
            totals[event.phase] += event.duration
        return dict(totals)

    def total_bytes_by_phase(self) -> dict[str, int]:
        """Summed payload bytes per phase."""
        totals: dict[str, int] = defaultdict(int)
        for event in self.events:
            totals[event.phase] += event.nbytes
        return dict(totals)

    def actors(self) -> list[str]:
        return sorted({e.actor for e in self.events})

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.events)

    def to_rows(self) -> "Iterator[dict[str, object]]":
        """Yield the events as plain dicts (JSONL export, external tooling).

        Every renderer below is lazy: it yields one row at a time, each
        checked against the canonical registry
        (:mod:`repro.devtools.trace_schema`) as it is rendered, so a field
        added here without registering it fails at the first export, and
        an exporter holds one row however long the run was.  ``list(...)``
        gives a list.
        """
        return _validated(
            {
                "type": "activity",
                "start_s": e.start,
                "end_s": e.end,
                "duration_s": e.duration,
                "phase": e.phase,
                "actor": e.actor,
                "round": e.round_index,
                "nbytes": e.nbytes,
                "detail": e.detail,
            }
            for e in self.events
        )

    def abort_rows(self) -> "Iterator[dict[str, object]]":
        """Yield the preemptions as plain dicts (the ``activity_abort`` JSONL rows)."""
        return _validated(
            {
                "type": "activity_abort",
                "start_s": e.start,
                "time_s": e.time_s,
                "phase": e.phase,
                "actor": e.actor,
                "round": e.round_index,
                "client": e.client,
                "resolution": e.resolution,
            }
            for e in self.aborts
        )

    def retry_rows(self) -> "Iterator[dict[str, object]]":
        """Yield the recovery re-attempts as plain dicts (the ``retry`` JSONL rows)."""
        return _validated(
            {
                "type": "retry",
                "time_s": e.time_s,
                "actor": e.actor,
                "round": e.round_index,
                "client": e.client,
                "attempt": e.attempt,
            }
            for e in self.retries
        )

    def regroup_rows(self) -> "Iterator[dict[str, object]]":
        """Yield the re-partitions as plain dicts (the ``regroup`` JSONL rows)."""
        return _validated(
            {
                "type": "regroup",
                "time_s": e.time_s,
                "round": e.round_index,
                "policy": e.policy,
                "groups": [list(g) for g in e.groups],
                "changed": e.changed,
            }
            for e in self.regroups
        )

    def filter(
        self, phases: Iterable[str] | None = None, actor_prefix: str | None = None
    ) -> list[TraceEvent]:
        """Events matching the given phases and/or actor-name prefix."""
        phase_set = set(phases) if phases is not None else None
        out = []
        for event in self.events:
            if phase_set is not None and event.phase not in phase_set:
                continue
            if actor_prefix is not None and not event.actor.startswith(actor_prefix):
                continue
            out.append(event)
        return out
