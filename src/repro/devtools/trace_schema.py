"""Canonical schema of the ``--trace-out`` JSONL export, and its one reader.

This module is the *single* source of truth for every trace-row type
and its exact field set, and the only code that parses a trace file:

* the recorder (:mod:`repro.sim.trace`) validates the rows it renders,
* the exporter (:func:`repro.experiments.catalog.export_trace`)
  validates every row it renders itself (the recorder's rows arrive
  validated), so each written row is checked exactly once,
* the replay readers (the :mod:`repro.experiments.catalog` meta reader
  and :class:`repro.experiments.availability.TraceReplay`) call
  :func:`read_rows`, which checks every row they keep against the
  registry and against :data:`READ_DOMAINS`, the type and range of each
  field they read, before they build anything from it,
* the schema-pin tests (``tests/devtools/test_trace_schema.py``) assert
  the registry against a golden copy.

On top of the runtime checks, lint rule ``TRC001``
(:mod:`repro.devtools.rules`) statically cross-checks every trace-row
dict literal in the source tree against this registry, so a field added
in only one place fails either the lint or the pin suite.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Mapping

__all__ = [
    "TRACE_SCHEMAS",
    "ROW_TYPES",
    "READ_DOMAINS",
    "REPLAY_META_REQUIRED",
    "fields_of",
    "validate_row",
    "read_rows",
]

#: exact key sets of every ``--trace-out`` JSONL record type
TRACE_SCHEMAS: dict[str, frozenset[str]] = {
    "meta": frozenset({
        "type", "scheme", "scenario", "seed", "rounds", "medium", "transport",
        "aggregation", "failure_model", "grouping", "regroup", "regroup_every",
        "num_clients", "num_groups", "dynamics", "total_latency_s", "events",
        "aborts", "retries", "regroups",
    }),
    "availability": frozenset({"type", "client", "toggles"}),
    "round_conditions": frozenset({
        "type", "round", "time_s", "available", "participants", "slowdowns",
    }),
    "activity": frozenset({
        "type", "start_s", "end_s", "duration_s", "phase", "actor", "round",
        "nbytes", "detail",
    }),
    "activity_abort": frozenset({
        "type", "start_s", "time_s", "phase", "actor", "round", "client",
        "resolution",
    }),
    "retry": frozenset({"type", "time_s", "actor", "round", "client", "attempt"}),
    "regroup": frozenset({"type", "time_s", "round", "policy", "groups", "changed"}),
    "round_timing": frozenset({
        "type", "round", "des_s", "analytic_s", "lower_bound_s",
    }),
    "aggregation_update": frozenset({
        "type", "unit", "unit_round", "time_s", "staleness", "alpha", "weight",
    }),
    "energy": frozenset({
        "type", "actor", "tx_j", "rx_j", "compute_j", "idle_j", "total_j",
    }),
    "energy_summary": frozenset({
        "type", "tx_j", "rx_j", "compute_j", "idle_j", "total_j",
    }),
}

#: every registered row type, in a stable order
ROW_TYPES: tuple[str, ...] = tuple(sorted(TRACE_SCHEMAS))


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: A field's domain: ``(what, test)`` pairs its value must pass in order;
#: the first it fails completes the message "<field> must be <what>".
Domain = list[tuple[str, Callable[[Any], bool]]]

#: the domain of every field a replay reader reads, per row type; a kept
#: row must carry each of them (its other registered fields may be missing)
READ_DOMAINS: dict[str, dict[str, Domain]] = {
    "meta": {
        "scenario": [("a string or null", lambda v: v is None or isinstance(v, str))],
        "seed": [("an integer >= 0", lambda v: _integer(v) and v >= 0)],
        "num_clients": [("an integer >= 1", lambda v: _integer(v) and v >= 1)],
        "num_groups": [("an integer >= 1 or null", lambda v: v is None or _integer(v) and v >= 1)],
        "dynamics": [("an object or null", lambda v: v is None or isinstance(v, dict))],
    },
    "availability": {
        "client": [("an integer >= 0", lambda v: _integer(v) and v >= 0)],
        # the times, in seconds, at which the client's availability flips
        "toggles": [
            ("numbers in a list", lambda v: isinstance(v, list) and all(
                _integer(t) or isinstance(t, float) for t in v)),
            # An int is finite however large; ``math.isfinite`` would overflow on it.
            ("finite", lambda v: all(isinstance(t, int) or math.isfinite(t) for t in v)),
            ("strictly increasing", lambda v: all(a < b for a, b in zip(v, v[1:]))),
            ("positive", lambda v: not v or v[0] > 0),
        ],
    },
}

#: the ``meta`` fields the trace-replay scenario builder reads
REPLAY_META_REQUIRED: frozenset[str] = frozenset({"type", *READ_DOMAINS["meta"]})


def fields_of(row_type: str) -> frozenset[str]:
    """The exact field set of ``row_type`` (raises on unknown types)."""
    try:
        return TRACE_SCHEMAS[row_type]
    except KeyError:
        raise ValueError(
            f"unknown trace row type {row_type!r}; expected one of {ROW_TYPES}"
        ) from None


def validate_row(row: Mapping[str, Any]) -> None:
    """Check one rendered trace row against the registry.

    Raises ``ValueError`` when the row's ``type`` is unregistered or its
    key set drifts from the canonical schema — the runtime counterpart
    of lint rule TRC001.
    """
    row_type = row.get("type")
    if not isinstance(row_type, str):
        raise ValueError(f"trace row has no string 'type' field: {dict(row)!r}")
    expected = fields_of(row_type)
    got = frozenset(row)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        raise ValueError(
            f"trace row {row_type!r} drifts from repro.devtools.trace_schema: "
            f"missing={missing} extra={extra}"
        )


def _shown(value: Any) -> str:
    """``value`` as the file spells it, cut short."""
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def read_rows(path: str, row_type: str) -> "list[tuple[int, dict[str, Any]]]":
    """The ``row_type`` rows of the trace at ``path``, each with its line number.

    Every kept row is checked as it is read: it carries no field outside
    the registry, and every field :data:`READ_DOMAINS` lists for
    ``row_type`` is present and inside its domain.  Rows of other types
    (and JSON values that are not objects) are skipped unchecked.  Any
    fault raises one ``ValueError`` naming ``path:line`` and the field.
    """
    expected = fields_of(row_type)
    domains = READ_DOMAINS.get(row_type, {})
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace {path!r}: {exc}") from None
    rows: list[tuple[int, dict[str, Any]]] = []
    with fh:
        for line, text in enumerate(fh, start=1):
            if not text.strip():
                continue
            try:
                row = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line}: not JSONL ({exc})") from None
            if not isinstance(row, dict) or row.get("type") != row_type:
                continue
            unknown = sorted(set(row) - expected)
            if unknown:
                raise ValueError(
                    f"{path}:{line}: {row_type} row carries fields unknown to "
                    f"repro.devtools.trace_schema: {unknown}"
                )
            missing = sorted(set(domains) - set(row))
            if missing:
                raise ValueError(
                    f"{path}:{line}: {row_type} row lacks {', '.join(missing)}, "
                    "which replay reads"
                )
            for field, domain in domains.items():
                for what, admits in domain:
                    if not admits(row[field]):
                        raise ValueError(
                            f"{path}:{line}: {field} must be {what}, got {_shown(row[field])}"
                        )
            rows.append((line, row))
    return rows
