"""Golden pin of the canonical trace-row schema registry.

The field sets below are written out literally on purpose: a field
added or removed in ``repro.devtools.trace_schema`` must fail *here*
(prompting a deliberate schema bump) rather than silently reshaping
every consumer at once.
"""

from __future__ import annotations

import json

import pytest

from repro.devtools.trace_schema import (
    READ_DOMAINS,
    REPLAY_META_REQUIRED,
    ROW_TYPES,
    TRACE_SCHEMAS,
    fields_of,
    read_rows,
    validate_row,
)

#: golden copy — keep in lockstep with trace_schema.TRACE_SCHEMAS
PINNED_SCHEMAS = {
    "meta": {
        "type", "scheme", "scenario", "seed", "rounds", "medium", "transport",
        "aggregation", "failure_model", "grouping", "regroup", "regroup_every",
        "num_clients", "num_groups", "dynamics", "total_latency_s", "events",
        "aborts", "retries", "regroups",
    },
    "availability": {"type", "client", "toggles"},
    "round_conditions": {
        "type", "round", "time_s", "available", "participants", "slowdowns",
    },
    "activity": {
        "type", "start_s", "end_s", "duration_s", "phase", "actor", "round",
        "nbytes", "detail",
    },
    "activity_abort": {
        "type", "start_s", "time_s", "phase", "actor", "round", "client",
        "resolution",
    },
    "retry": {"type", "time_s", "actor", "round", "client", "attempt"},
    "regroup": {"type", "time_s", "round", "policy", "groups", "changed"},
    "round_timing": {"type", "round", "des_s", "analytic_s", "lower_bound_s"},
    "aggregation_update": {
        "type", "unit", "unit_round", "time_s", "staleness", "alpha", "weight",
    },
    "energy": {"type", "actor", "tx_j", "rx_j", "compute_j", "idle_j", "total_j"},
    "energy_summary": {"type", "tx_j", "rx_j", "compute_j", "idle_j", "total_j"},
}


class TestRegistryPins:
    def test_row_types_pinned(self):
        assert set(TRACE_SCHEMAS) == set(PINNED_SCHEMAS)
        assert ROW_TYPES == tuple(sorted(PINNED_SCHEMAS))

    @pytest.mark.parametrize("row_type", sorted(PINNED_SCHEMAS))
    def test_field_sets_pinned(self, row_type):
        assert TRACE_SCHEMAS[row_type] == PINNED_SCHEMAS[row_type], (
            f"schema of {row_type!r} changed — if deliberate, update this "
            f"pin AND every producer/consumer together"
        )

    def test_every_row_type_has_type_field(self):
        for row_type, fields in TRACE_SCHEMAS.items():
            assert "type" in fields, row_type

    def test_replay_requirements_are_schema_subsets(self):
        assert REPLAY_META_REQUIRED <= TRACE_SCHEMAS["meta"]


class TestFieldsOf:
    def test_known_type(self):
        assert fields_of("retry") is TRACE_SCHEMAS["retry"]

    def test_unknown_type_raises_with_catalog(self):
        with pytest.raises(ValueError, match="unknown trace row type"):
            fields_of("mystery")


class TestValidateRow:
    def _row(self, row_type, **overrides):
        row = {field: None for field in TRACE_SCHEMAS[row_type]}
        row["type"] = row_type
        row.update(overrides)
        return row

    @pytest.mark.parametrize("row_type", sorted(PINNED_SCHEMAS))
    def test_exact_rows_validate(self, row_type):
        validate_row(self._row(row_type))

    def test_extra_field_rejected(self):
        row = self._row("retry")
        row["extra"] = 1
        with pytest.raises(ValueError, match="extra=\\['extra'\\]"):
            validate_row(row)

    def test_missing_field_rejected(self):
        row = self._row("retry")
        del row["attempt"]
        with pytest.raises(ValueError, match="missing=\\['attempt'\\]"):
            validate_row(row)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown trace row type"):
            # repro: disable=TRC001 (fixture: an unregistered type is the input under test)
            validate_row({"type": "mystery"})

    def test_typeless_row_rejected(self):
        with pytest.raises(ValueError, match="no string 'type'"):
            validate_row({"client": 0})
        with pytest.raises(ValueError, match="no string 'type'"):
            validate_row({"type": 7})


#: a ``meta`` line carrying exactly the fields replay reads
META = ('{"type": "meta", "scenario": "churn", "seed": 0, "num_clients": 12, '
        '"num_groups": 4, "dynamics": null}')


class TestReadRows:
    def _trace(self, tmp_path, *lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_every_read_field_is_registered(self):
        for row_type, domains in READ_DOMAINS.items():
            assert set(domains) <= TRACE_SCHEMAS[row_type], row_type
        assert REPLAY_META_REQUIRED == {"type", *READ_DOMAINS["meta"]}

    def test_keeps_the_rows_of_one_type_with_their_lines(self, tmp_path):
        path = self._trace(
            tmp_path, META, "", "[1, 2]", '{"type": "activity"}',
            '{"type": "availability", "client": 3, "toggles": [1, 2.5]}',
        )
        assert read_rows(path, "availability") == [
            (5, {"type": "availability", "client": 3, "toggles": [1, 2.5]}),
        ]
        assert [line for line, _ in read_rows(path, "meta")] == [1]

    @pytest.mark.parametrize("field, value", [
        ("scenario", "null"), ("seed", "18446744073709551616"),
        ("num_groups", "null"), ("dynamics", '{"seed": 3}'),
    ])
    def test_meta_values_inside_their_domains(self, tmp_path, field, value):
        meta = json.loads(META)
        meta[field] = json.loads(value)
        path = self._trace(tmp_path, json.dumps(meta))
        assert read_rows(path, "meta") == [(1, meta)]

    @pytest.mark.parametrize("field, value", [
        ("scenario", "3"), ("scenario", "true"),
        ("seed", "null"), ("seed", "true"), ("seed", "2.9"), ("seed", "-1"), ("seed", '"0"'),
        ("num_clients", "null"), ("num_clients", "0"), ("num_clients", "12.0"),
        ("num_groups", "0"), ("num_groups", "false"),
        ("dynamics", '"x"'), ("dynamics", "[]"), ("dynamics", "true"),
    ])
    def test_meta_values_outside_their_domains(self, tmp_path, field, value):
        meta = json.loads(META)
        meta[field] = json.loads(value)
        path = self._trace(tmp_path, json.dumps(meta))
        with pytest.raises(ValueError, match=rf"trace\.jsonl:1: {field} must be .*, got "):
            read_rows(path, "meta")

    @pytest.mark.parametrize("client, toggles, fault", [
        ("null", "[1.0]", "client must be an integer >= 0"),
        ("1.7", "[1.0]", "client must be an integer >= 0"),
        ("true", "[1.0]", "client must be an integer >= 0"),
        ("-1", "[1.0]", "client must be an integer >= 0"),
        ("0", "[true]", "toggles must be numbers in a list"),
        ("0", "{}", "toggles must be numbers in a list"),
        ("0", "[1.0, 1.0]", "toggles must be strictly increasing"),
        ("0", "[-0.5]", "toggles must be positive"),
    ])
    def test_availability_values_outside_their_domains(self, tmp_path, client, toggles, fault):
        path = self._trace(
            tmp_path, META, f'{{"type": "availability", "client": {client}, "toggles": {toggles}}}'
        )
        with pytest.raises(ValueError, match=rf"trace\.jsonl:2: {fault}, got "):
            read_rows(path, "availability")

    def test_a_huge_integer_toggle_is_finite(self, tmp_path):
        path = self._trace(
            tmp_path, f'{{"type": "availability", "client": 0, "toggles": [1, {10**400}]}}'
        )
        assert read_rows(path, "availability")[0][1]["toggles"] == [1, 10**400]

    def test_unknown_and_missing_fields_named(self, tmp_path):
        path = self._trace(tmp_path, '{"type": "availability", "client": 0, "extra": 1}')
        with pytest.raises(ValueError, match=r":1: availability row carries fields unknown "
                           r"to repro.devtools.trace_schema: \['extra'\]"):
            read_rows(path, "availability")
        path = self._trace(tmp_path, '{"type": "availability", "client": 0}')
        with pytest.raises(ValueError, match=r":1: availability row lacks toggles, "):
            read_rows(path, "availability")

    def test_a_long_value_is_cut_short(self, tmp_path):
        toggles = json.dumps([float(t) for t in range(50, 0, -1)])
        path = self._trace(
            tmp_path, f'{{"type": "availability", "client": 0, "toggles": {toggles}}}'
        )
        with pytest.raises(ValueError, match=r"got \[50\.0, 49\.0, .{40,}\.\.\.$"):
            read_rows(path, "availability")

    def test_unregistered_row_type_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace row type"):
            read_rows(self._trace(tmp_path, META), "mystery")
