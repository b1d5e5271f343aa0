"""CLI smoke tests (fast scale only)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.devtools.trace_schema import TRACE_SCHEMAS
from repro.experiments.scenario import ExperimentScenario


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2a_defaults(self):
        args = build_parser().parse_args(["fig2a"])
        assert args.command == "fig2a"
        assert args.rounds == 20

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--scheme", "GSFL", "--groups", "3", "--quantize-bits", "8"]
        )
        assert args.scheme == "GSFL"
        assert args.groups == 3
        assert args.quantize_bits == 8

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "Gossip"])

    def test_runtime_options(self):
        args = build_parser().parse_args(
            ["run", "--medium", "contended", "--heterogeneity", "0.8",
             "--participation", "0.5", "--straggler-rate", "0.2",
             "--churn-uptime", "30", "--churn-downtime", "10",
             "--trace-out", "t.jsonl"]
        )
        assert args.medium == "contended"
        assert args.heterogeneity == 0.8
        assert args.participation == 0.5
        assert args.trace_out == "t.jsonl"

    def test_unknown_medium_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--medium", "psychic"])

    def test_aggregation_options(self):
        for spec in ("sync", "async", "bounded:0", "bounded:3"):
            args = build_parser().parse_args(["run", "--aggregation", spec])
            assert args.aggregation == spec

    @pytest.mark.parametrize("spec", ["fifo", "bounded", "bounded:-1", "bounded:x"])
    def test_malformed_aggregation_rejected(self, spec):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--aggregation", spec])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--scale", "fast"]) == 0
        out = capsys.readouterr().out
        assert "N=6" in out and "micro_cnn" in out

    def test_cuts(self, capsys):
        assert main(["cuts", "--scale", "fast"]) == 0
        assert "best" in capsys.readouterr().out

    def test_run_gsfl(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GSFL: 2 evals" in out

    def test_run_with_failure_rate(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--failure-rate", "0.4"]
        )
        assert code == 0

    def test_fig2a_fast(self, capsys):
        code = main(
            ["fig2a", "--scale", "fast", "--rounds", "2", "--target", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GSFL" in out and "FL" in out

    def test_run_contended_medium(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--medium", "contended", "--heterogeneity", "0.5"]
        )
        assert code == 0

    def test_run_with_dynamics(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "FL", "--rounds", "2",
             "--participation", "0.5", "--straggler-rate", "0.5"]
        )
        assert code == 0

    def test_trace_out_writes_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--trace-out", str(path)]
        )
        assert code == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {r["type"] for r in rows}
        assert {"meta", "activity", "round_timing", "energy", "energy_summary"} <= kinds
        meta = rows[0]
        assert meta["type"] == "meta"
        assert meta["scheme"] == "GSFL"
        activities = [r for r in rows if r["type"] == "activity"]
        assert len(activities) == meta["events"] > 0
        assert all(r["end_s"] >= r["start_s"] for r in activities)
        summary = [r for r in rows if r["type"] == "energy_summary"]
        assert len(summary) == 1 and summary[0]["total_j"] > 0

    def test_churn_uptime_zero_is_a_clean_config_error(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "FL", "--rounds", "1",
             "--churn-uptime", "0", "--churn-downtime", "5"]
        )
        assert code == 2
        assert "churn_uptime_s must be > 0" in capsys.readouterr().err

    def test_churn_downtime_zero_is_a_clean_config_error(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "FL", "--rounds", "1",
             "--churn-uptime", "5", "--churn-downtime", "0"]
        )
        assert code == 2
        assert "churn_downtime_s must be > 0" in capsys.readouterr().err

    def test_negative_max_retries_is_a_clean_config_error(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--churn-uptime", "5", "--churn-downtime", "1",
             "--failure-model", "mid-activity", "--max-retries", "-1"]
        )
        assert code == 2
        assert "max_retries must be >= 0" in capsys.readouterr().err

    def test_unknown_failure_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--failure-model", "chaos"])

    def test_failure_model_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--failure-model", "mid-activity", "--max-retries", "5"]
        )
        assert args.failure_model == "mid-activity"
        assert args.max_retries == 5

    def test_grouping_and_regroup_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "--grouping", "channel_aware",
             "--regroup", "abort_history", "--regroup-every", "3"]
        )
        assert args.grouping == "channel_aware"
        assert args.regroup == "abort_history"
        assert args.regroup_every == 3

    @pytest.mark.parametrize(
        "flag,value", [("--grouping", "astrology"), ("--regroup", "vibes")]
    )
    def test_unknown_grouping_and_regroup_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", flag, value])
        assert excinfo.value.code == 2

    def test_run_with_grouping_strategy(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--grouping", "compute_balanced"]
        )
        assert code == 0

    def test_regroup_every_zero_is_a_clean_config_error(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--regroup", "availability_aware", "--regroup-every", "0"]
        )
        assert code == 2
        assert "regroup_every must be > 0" in capsys.readouterr().err

    def test_regroup_with_async_aggregation_is_a_clean_config_error(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--regroup", "abort_history", "--aggregation", "async"]
        )
        assert code == 2
        assert "synchronous aggregation" in capsys.readouterr().err

    def test_unknown_transport_is_a_clean_config_error(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--transport", "gzip"]
        )
        assert code == 2
        assert "unknown transport" in capsys.readouterr().err

    def test_transport_conflicting_quantize_bits_is_a_clean_config_error(
        self, capsys
    ):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--transport", "topk:0.1", "--quantize-bits", "8"]
        )
        assert code == 2
        assert "conflicts with quantize_bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            "run --rounds 0",
            "run --rounds -2",
            "fig2a --rounds 0",
            "fig2a --rounds -2",
            "fig2b --rounds 0",
            "fig2b --rounds -2",
            "run --groups 0",
            "run --groups -1",
            "run --groups 7",  # the fast preset has 6 clients
            "run --cut-layer 0",
            "run --cut-layer 99",
            "run --workers 0 --executor thread",
            "run --workers 0 --executor process",
            "fig2a --workers 0 --executor thread",
            "fig2b --workers 0 --executor process",
            "run --workers 2",  # the serial default runs one worker
        ],
    )
    def test_hostile_value_is_a_clean_config_error(self, argv, capsys, monkeypatch):
        """Rejected in the configuration phase, before any data is made,
        with a sentence naming the flag and exit 2 — not a traceback."""

        def no_build(self):
            raise AssertionError("the scenario was built before the flags were checked")

        monkeypatch.setattr(ExperimentScenario, "build", no_build)
        command, flag, *rest = argv.split()
        assert main([command, flag, *rest, "--scale", "fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err

    def test_run_with_int8_transport(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "SplitFed", "--rounds", "1",
             "--transport", "int8"]
        )
        assert code == 0


# The trace schemas are defined exactly once in
# ``repro.devtools.trace_schema`` (imported at the top of this module) —
# the recorder, the CLI exporter, the replay parsers and this pin suite
# all read the same registry.  The literal field sets themselves are
# pinned by ``tests/devtools/test_trace_schema.py``.


class TestTraceRoundTrip:
    """Schema-level round-trip of the JSONL trace export."""

    def _rows(self, tmp_path, extra_args):
        path = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--scale", "fast", "--rounds", "2", "--trace-out", str(path)]
            + extra_args
        )
        assert code == 0
        return [json.loads(line) for line in path.read_text().splitlines()]

    def _check_schemas(self, rows):
        from repro.sim.trace import PHASES

        assert rows, "trace export wrote no rows"
        for row in rows:
            assert row["type"] in TRACE_SCHEMAS, f"unknown record type: {row}"
            assert set(row) == TRACE_SCHEMAS[row["type"]], f"schema drift: {row}"
        for row in rows:
            if row["type"] == "activity":
                assert row["phase"] in PHASES
                assert row["end_s"] >= row["start_s"] >= 0
                assert row["nbytes"] >= 0 and row["round"] >= 0

    def test_sync_trace_schema(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["--scheme", "GSFL"])
        self._check_schemas(rows)
        # synchronous runs log no per-update staleness rows
        assert not [r for r in rows if r["type"] == "aggregation_update"]

    def test_async_trace_schema_and_staleness_fields(self, tmp_path, capsys):
        rows = self._rows(
            tmp_path,
            ["--scheme", "GSFL", "--aggregation", "bounded:2",
             "--straggler-rate", "0.5"],
        )
        self._check_schemas(rows)
        assert rows[0]["aggregation"] == "bounded:2"
        updates = [r for r in rows if r["type"] == "aggregation_update"]
        assert updates, "async run exported no staleness rows"
        for row in updates:
            assert isinstance(row["staleness"], int)
            assert 0 <= row["staleness"] <= 2  # never exceeds the bound K
            assert 0.0 < row["alpha"] <= 1.0
            assert row["time_s"] >= 0 and row["unit_round"] >= 0

    def test_async_fl_trace(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["--scheme", "FL", "--aggregation", "async"])
        self._check_schemas(rows)
        assert [r for r in rows if r["type"] == "aggregation_update"]

    def test_float32_transport_trace_has_no_codec_rows(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["--scheme", "GSFL"])
        assert rows[0]["transport"] == "float32"
        phases = {r["phase"] for r in rows if r["type"] == "activity"}
        assert "encode" not in phases and "decode" not in phases

    @pytest.mark.parametrize("scheme", ["GSFL", "SplitFed", "SL", "PSL", "FL"])
    def test_int8_transport_trace_codec_rows(self, tmp_path, capsys, scheme):
        """A lossy codec prices encode/decode on the trace and shrinks
        the bytes shipped across every transmit phase ~4x vs float32."""
        base = self._rows(tmp_path, ["--scheme", scheme])
        rows = self._rows(tmp_path, ["--scheme", scheme, "--transport", "int8"])
        self._check_schemas(rows)
        assert rows[0]["transport"] == "int8"
        acts = [r for r in rows if r["type"] == "activity"]
        assert [r for r in acts if r["phase"] == "encode"]
        assert [r for r in acts if r["phase"] == "decode"]

        def wire_bytes(trace_rows):
            transmit = {
                "model_distribution", "uplink_smashed", "downlink_gradient",
                "model_relay", "model_upload", "model_download",
            }
            return sum(
                r["nbytes"] for r in trace_rows
                if r["type"] == "activity" and r["phase"] in transmit
            )

        shrink = wire_bytes(base) / wire_bytes(rows)
        assert 3.0 < shrink < 4.1

    def test_round_failure_model_trace_has_no_abort_rows(self, tmp_path, capsys):
        rows = self._rows(
            tmp_path,
            ["--scheme", "GSFL", "--churn-uptime", "5", "--churn-downtime", "1",
             "--failure-model", "round"],
        )
        self._check_schemas(rows)
        assert rows[0]["failure_model"] == "round"
        assert not [r for r in rows if r["type"] in ("activity_abort", "retry")]

    @pytest.mark.parametrize("scheme", ["GSFL", "FL"])
    def test_mid_activity_trace_aborts_and_recovery(self, tmp_path, capsys, scheme):
        """Under mid-activity churn at the activity time scale, aborts
        appear, and every abort resolves to exactly one retry, reroute,
        or surrender (retries additionally get their own rows)."""
        from repro.sim.trace import ABORT_RESOLUTIONS

        rows = self._rows(
            tmp_path,
            ["--scheme", scheme, "--churn-uptime", "0.1",
             "--churn-downtime", "0.03", "--failure-model", "mid-activity"],
        )
        self._check_schemas(rows)
        assert rows[0]["failure_model"] == "mid-activity"
        aborts = [r for r in rows if r["type"] == "activity_abort"]
        retries = [r for r in rows if r["type"] == "retry"]
        assert aborts, "mid-activity churn produced no activity_abort rows"
        assert rows[0]["aborts"] == len(aborts)
        assert rows[0]["retries"] == len(retries)
        for row in aborts:
            assert row["resolution"] in ABORT_RESOLUTIONS
            assert row["time_s"] >= row["start_s"] >= 0
        assert len(retries) == sum(r["resolution"] == "retry" for r in aborts)
        # A reroute permanently removes the dead client from its track's
        # round: no (round, client) pair resolves as reroute twice.
        reroutes = [
            (r["round"], r["client"]) for r in aborts
            if r["resolution"] == "reroute"
        ]
        assert len(reroutes) == len(set(reroutes))
        for row in retries:
            assert 1 <= row["attempt"] <= 2  # default --max-retries

    def test_regroup_trace_rows_and_meta(self, tmp_path, capsys):
        """``--regroup`` under churn exports regroup rows whose partitions
        are exact, plus the regroup meta fields."""
        rows = self._rows(
            tmp_path,
            ["--scheme", "GSFL", "--churn-uptime", "0.1",
             "--churn-downtime", "0.03", "--failure-model", "mid-activity",
             "--regroup", "availability_aware"],
        )
        self._check_schemas(rows)
        meta = rows[0]
        assert meta["grouping"] == "contiguous"
        assert meta["regroup"] == "availability_aware"
        assert meta["regroup_every"] == 1
        regroups = [r for r in rows if r["type"] == "regroup"]
        assert meta["regroups"] == len(regroups) == 1  # rounds=2 -> round 1
        for row in regroups:
            flat = sorted(c for g in row["groups"] for c in g)
            assert flat == list(range(meta["num_clients"]))
            assert row["policy"] == "availability_aware"
            assert row["round"] == 1

    def test_static_regroup_exports_no_regroup_rows(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["--scheme", "GSFL"])
        assert rows[0]["regroup"] == "static"
        assert rows[0]["regroups"] == 0
        assert not [r for r in rows if r["type"] == "regroup"]

    def test_mid_activity_async_trace(self, tmp_path, capsys):
        """Preemption composes with barrier-free aggregation: abort rows
        and staleness commit rows coexist in one trace."""
        rows = self._rows(
            tmp_path,
            ["--scheme", "GSFL", "--aggregation", "bounded:2",
             "--churn-uptime", "0.1", "--churn-downtime", "0.03",
             "--failure-model", "mid-activity"],
        )
        self._check_schemas(rows)
        assert [r for r in rows if r["type"] == "activity_abort"]
        assert [r for r in rows if r["type"] == "aggregation_update"]

    def test_meta_embeds_full_dynamics_config(self, tmp_path, capsys):
        """The meta row's ``dynamics`` object carries every
        ``DynamicsConfig`` field, so a trace alone can rebuild the world."""
        from dataclasses import fields

        from repro.experiments.dynamics import DynamicsConfig

        rows = self._rows(
            tmp_path,
            ["--scheme", "GSFL", "--churn-uptime", "0.1",
             "--churn-downtime", "0.03", "--failure-model", "mid-activity"],
        )
        self._check_schemas(rows)
        meta = rows[0]
        assert set(meta["dynamics"]) == {f.name for f in fields(DynamicsConfig)}
        assert meta["dynamics"]["failure_model"] == "mid-activity"
        assert meta["seed"] == 0 and meta["num_groups"] == 2
        # rebuilding from the embedded dict round-trips the config exactly
        assert DynamicsConfig(**meta["dynamics"]) is not None

    def test_static_run_meta_dynamics_is_null(self, tmp_path, capsys):
        rows = self._rows(tmp_path, ["--scheme", "GSFL"])
        meta = rows[0]
        assert meta["dynamics"] is None
        assert not [r for r in rows if r["type"] == "availability"]


class TestScenarioCLI:
    """The scenario catalog: ``--scenario`` plumbing plus the
    ``scenarios`` subcommand."""

    def test_scenarios_lists_catalog(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fast", "paper", "churn", "diurnal", "cell-outage",
                     "mobility", "device-classes", "cross-traffic"):
            assert name in out
        assert "replay:" in out  # the dynamic form is advertised

    def test_scenarios_describe(self, capsys):
        assert main(["scenarios", "diurnal"]) == 0
        out = capsys.readouterr().out
        assert "availability=diurnal" in out
        assert "6 clients / 2 groups" in out

    def test_scenarios_unknown_name_exit_2(self, capsys):
        assert main(["scenarios", "astrology"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_unknown_scenario_exit_2(self, capsys):
        assert main(["run", "--scenario", "astrology", "--rounds", "1"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["churn", "diurnal", "cell-outage", "mobility",
                 "device-classes", "cross-traffic"]
    )
    def test_run_each_catalog_world(self, name, capsys):
        assert main(["run", "--scenario", name, "--rounds", "1"]) == 0

    def test_scenario_trace_availability_and_round_rows(self, tmp_path, capsys):
        path = tmp_path / "churn.jsonl"
        assert main(
            ["run", "--scenario", "churn", "--scheme", "GSFL", "--rounds", "2",
             "--trace-out", str(path)]
        ) == 0
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            assert row["type"] in TRACE_SCHEMAS
            assert set(row) == TRACE_SCHEMAS[row["type"]], f"schema drift: {row}"
        meta = rows[0]
        assert meta["scenario"] == "churn"
        assert meta["dynamics"]["churn_uptime_s"] == 0.15
        avail = [r for r in rows if r["type"] == "availability"]
        assert len(avail) == meta["num_clients"] == 12
        for row in avail:
            toggles = row["toggles"]
            assert toggles == sorted(toggles)
            assert all(t > 0 for t in toggles)
        conds = [r for r in rows if r["type"] == "round_conditions"]
        assert [r["round"] for r in conds] == [0, 1]
        for row in conds:
            assert set(row["participants"]) <= set(row["available"])
            # no stragglers in this world -> slowdown map only carries
            # participants (empty here, keyed by client id when present)
            assert set(map(int, row["slowdowns"])) <= set(row["participants"])

    def test_record_replay_round_trip_cli(self, tmp_path, capsys):
        """``replay:<trace>`` re-drives the recorded availability: the
        replayed run reports the same per-round metrics."""
        path = tmp_path / "rec.jsonl"
        assert main(
            ["run", "--scenario", "churn", "--scheme", "GSFL", "--rounds", "2",
             "--trace-out", str(path)]
        ) == 0
        first = capsys.readouterr().out
        assert main(
            ["run", "--scenario", f"replay:{path}", "--scheme", "GSFL",
             "--rounds", "2"]
        ) == 0
        second = capsys.readouterr().out

        def metrics(out):
            return [
                line for line in out.splitlines()
                if line.lstrip()[:1].isdigit() or line.startswith("GSFL:")
            ]

        assert metrics(first) == metrics(second)
