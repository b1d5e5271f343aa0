"""CLI smoke tests (fast scale only)."""

from __future__ import annotations

import json
import os

import pytest

import repro.cli
from repro.cli import COMMANDS, FLAGS, build_parser, main
from repro.devtools.trace_schema import TRACE_SCHEMAS
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import ExperimentScenario
from repro.schemes.base import Scheme


def _taking(flag: str) -> list[str]:
    """The commands of :data:`repro.cli.COMMANDS` that take ``flag``."""
    (row,) = [row for row in FLAGS if row.flag == flag]
    return [command for command in COMMANDS if command in row.commands]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.command == "figures"
        assert (args.rounds, args.target) == (26, 0.6)
        assert build_parser().parse_args(["run"]).rounds == 10

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--scheme", "GSFL", "--groups", "3"]
        )
        assert args.scheme == "GSFL"
        assert args.groups == 3

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "Gossip"])

    @pytest.mark.parametrize(
        "argv",
        [
            f"{command} {flag}"
            for command in COMMANDS
            for flag in ("--executor thread", "--workers 2")
        ]
        + ["run --quantize-bits 8"],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fig2a", "fig2b"])
    def test_removed_figure_commands_are_usage_errors(self, command, capsys):
        """``figures`` prints both figures; the per-figure commands are gone."""
        with pytest.raises(SystemExit) as exc:
            main([command, "--scale", "fast"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "figures" in err

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


#: ``figures --scale fast --rounds 3 --target 0.3`` after the schemes' summaries
FIGURES_FAST = """
  round         CL         SL       GSFL         FL
      1      31.67      45.00      26.67      18.33
      2      50.00      51.67      40.00      26.67
      3      51.67      53.33      55.00      31.67

GSFL-over-FL speedup @ 30%: 1.5x (paper ~5x)

--- SL ---
   latency_s  accuracy_%
        0.33       45.00
        0.71       51.67
        1.11       53.33
--- GSFL ---
   latency_s  accuracy_%
        0.19       26.67
        0.44       40.00
        0.69       55.00

GSFL delay reduction vs SL @ 30%: -33.0% (paper ~31.45%)
"""


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--scale", "fast"]) == 0
        out = capsys.readouterr().out
        assert "N=6" in out and "micro_cnn" in out

    def test_cuts(self, capsys):
        assert main(["cuts", "--scale", "fast"]) == 0
        assert "best" in capsys.readouterr().out

    def test_cuts_honours_the_medium(self, capsys):
        """``cuts`` priced every medium as the static one, byte for byte."""

        def columns(argv):
            assert main(["cuts", "--scale", "fast", *argv]) == 0
            lines = capsys.readouterr().out.splitlines()[1:8]
            rows = [[cell for cell in line.split() if cell != "*"] for line in lines]
            return [row[1] for row in rows], [row[2] for row in rows]

        static_sl, static_gsfl = columns([])
        contended_sl, contended_gsfl = columns(["--medium", "contended"])
        assert contended_sl == static_sl  # SL has one transmitter at a time
        assert contended_gsfl != static_gsfl

    def test_cuts_refuses_what_run_refuses(self, capsys):
        """``cuts`` printed a table for a cross-traffic world on a contended
        medium, which ``run`` refuses."""
        argv = ["--scenario", "cross-traffic", "--medium", "contended"]
        assert main(["run", *argv]) == 2
        run_err = capsys.readouterr().err
        assert main(["cuts", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == run_err
        assert "cross-traffic requires the 'static' medium" in err

    def test_cuts_refuses_client_dynamics(self, capsys):
        """``cuts --scenario churn`` printed a table that ignored the churn."""
        assert main(["cuts", "--scenario", "churn"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: a dry round prices a fleet without client dynamics "
            "under sync aggregation\n"
        )

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

    def test_figures_fast(self, capsys, monkeypatch):
        """Both figures from one priced training of each scheme.  The
        tables and headline lines are byte for byte what the former
        ``fig2a`` and ``fig2b`` commands printed at these flags, each of
        which trained its schemes separately."""
        trained = []
        run = Scheme.run

        def counted(self, num_rounds):
            trained.append(self.name)
            return run(self, num_rounds)

        monkeypatch.setattr(Scheme, "run", counted)
        assert main(["figures", "--scale", "fast", "--rounds", "3", "--target", "0.3"]) == 0
        assert trained == ["CL", "SL", "GSFL", "FL"]
        out = capsys.readouterr().out
        assert out.endswith(FIGURES_FAST), out

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

    @pytest.mark.parametrize("target", ["missing/trace.jsonl", "."])
    def test_unwritable_trace_out_exits_2_before_training(self, tmp_path, target, capsys):
        """The trace is written after the last round: a path it cannot be
        written to used to cost the whole run and end in a traceback."""
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--trace-out", str(tmp_path / target)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--trace-out" in captured.err
        assert "latency_s" not in captured.out  # no round table: nothing trained

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_trace_write_is_one_error_line(self, capsys):
        """A write that fails after training (a full disk) is reported as
        one line and a non-zero exit, not an ``OSError`` traceback."""
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--trace-out", "/dev/full"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot write --trace-out /dev/full: ")
        assert "No space left on device" in err and len(err.splitlines()) == 1

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

    @pytest.mark.parametrize(
        "argv,needle",
        [
            ("--failure-rate 1.5", "failure_rate must be in [0, 1], got 1.5"),
            ("--failure-rate nan", "failure_rate must be in [0, 1], got nan"),
            ("--failure-rate -0.5", "failure_rate must be in [0, 1], got -0.5"),
            ("--heterogeneity nan", "heterogeneity must be >= 0, got nan"),
            ("--scheme SplitFed --failure-rate 0.5", "GSFL-only flag(s) --failure-rate given"),
            ("--scheme FL --groups 3", "GSFL-only flag(s) --groups given"),
            ("--scheme SL --grouping random", "GSFL-only flag(s) --grouping given"),
            ("--scheme PSL --regroup availability_aware", "GSFL-only flag(s) --regroup given"),
            ("--scheme SplitFed --regroup-every 2", "GSFL-only flag(s) --regroup-every given"),
            ("--scheme CL --groups 2 --failure-rate 0.1",
             "--groups --failure-rate given with --scheme CL"),
            # CL prices its uploads without the codec; CL and FL train unsplit.
            ("--scheme CL --transport int8",
             "FL/GSFL/PSL/SL/SplitFed-only flag(s) --transport given with --scheme CL"),
            ("--scheme CL --cut-layer 2",
             "GSFL/PSL/SL/SplitFed-only flag(s) --cut-layer given with --scheme CL"),
            ("--scheme FL --cut-layer 2",
             "GSFL/PSL/SL/SplitFed-only flag(s) --cut-layer given with --scheme FL"),
        ],
    )
    def test_bad_scheme_argument_is_a_clean_config_error(self, argv, needle, capsys):
        """A scheme argument the scheme rejects, or a flag given to a scheme
        that would ignore it, exits 2 with a sentence instead of a traceback
        or a silently ignored flag."""
        code = main(["run", "--scale", "fast", "--rounds", "1", *argv.split()])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err

    @pytest.mark.parametrize(
        "argv,needle",
        [
            ("--straggler-rate 0.5 --straggler-slowdown nan",
             "straggler_slowdown must be finite and >= 1, got nan"),
            ("--straggler-rate 0.5 --straggler-slowdown inf",
             "straggler_slowdown must be finite and >= 1, got inf"),
            ("--heterogeneity inf", "heterogeneity must be finite, got inf"),
            ("--heterogeneity 1e308",
             "it must leave every client a finite, positive speed"),
            ("--churn-uptime inf --churn-downtime 5",
             "churn_uptime_s must be > 0 and finite, got inf"),
        ],
    )
    def test_non_finite_dynamics_and_fleet_values_exit_2(self, argv, needle, capsys):
        """A NaN or infinite straggler slowdown ran to a "total latency
        nans" / "infs" line with exit 0, and an infinite heterogeneity
        (or one whose draw under- or overflows a client's speed) exited 2
        naming ``flops_per_second`` instead of the flag's field.  An
        infinite churn up-window ran without churn, exit 0."""
        code = main(["run", "--scale", "fast", "--rounds", "1", "--scheme", "GSFL",
                     *argv.split()])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert "flops_per_second" not in err
        if "heterogeneity" in argv:
            assert "heterogeneity" in err

    @pytest.mark.parametrize("scheme", ["SL", "PSL", "CL"])
    def test_barrier_free_aggregation_on_a_sequential_scheme_exits_2(self, scheme, capsys):
        code = main(["run", "--scale", "fast", "--rounds", "1",
                     "--scheme", scheme, "--aggregation", "bounded:1"])
        assert code == 2
        assert "does not support --aggregation bounded:1" in capsys.readouterr().err

    def test_bounded_zero_is_the_sync_barrier_for_sl(self, capsys, monkeypatch):
        """``bounded:0`` resolves to the barrier, so SL accepts it and
        trains exactly the history ``sync`` does."""
        schemes = []

        def recording_make_scheme(*args, **kwargs):
            schemes.append(make_scheme(*args, **kwargs))
            return schemes[-1]

        monkeypatch.setattr(repro.cli, "make_scheme", recording_make_scheme)
        for spec in ("sync", "bounded:0"):
            assert main(["run", "--scale", "fast", "--rounds", "2",
                         "--scheme", "SL", "--aggregation", spec]) == 0
        sync, bounded = schemes
        assert bounded.config.aggregation == "bounded:0"
        assert bounded.history.to_rows() == sync.history.to_rows()

    def test_unknown_transport_is_a_clean_config_error(self, capsys):
        code = main(
            ["run", "--scale", "fast", "--scheme", "GSFL", "--rounds", "1",
             "--transport", "gzip"]
        )
        assert code == 2
        assert "unknown transport" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            *(f"{command} --rounds {value}"
              for command in _taking("--rounds") for value in ("0", "-2")),
            "run --groups 0",
            "run --groups -1",
            "run --groups 7",  # the fast preset has 6 clients
            "run --cut-layer 0",
            "run --cut-layer 99",
            # a target accuracy outside (0, 1] printed "@ nan%: unreached"
            # or a reduction at "-100%" with exit 0
            *(f"{command} --target {value}"
              for command in _taking("--target") for value in ("nan", "1.5", "-1", "0")),
            # a negative seed was a numpy traceback (exit 1), or for run an
            # exit 2 whose message did not name the flag
            *(f"{command} --seed -1" for command in _taking("--scale")),
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

    @pytest.mark.parametrize("command", _taking("--train-per-class"))
    def test_train_split_beyond_memory_is_a_clean_config_error(
        self, command, capsys, monkeypatch
    ):
        """10⁸ samples per class rendered a 5.59 TiB float64 training split:
        an ``_ArrayMemoryError`` traceback, exit 1.  It is refused before
        anything is built, in one line naming the flag, exit 2."""

        def no_build(self):
            raise AssertionError("the scenario was built before the flags were checked")

        monkeypatch.setattr(ExperimentScenario, "build", no_build)
        argv = [command, "--scale", "fast", "--train-per-class", "100000000"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --train-per-class 100000000 ")
        assert err.count("\n") == 1 and "memory" in err

    @pytest.mark.parametrize("command", ["info", "cuts"])
    def test_unknown_scenario_is_a_clean_config_error(self, command, capsys):
        """``info`` and ``cuts`` raised the catalog's ValueError as a traceback."""
        assert main([command, "--scenario", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown scenario 'nosuch'" in err

    def test_describe_scenario_rejects_a_negative_seed(self, capsys):
        """``scenarios NAME --seed -1`` described a world at seed -1, exit 0."""
        assert main(["scenarios", "churn", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

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

    def test_splitfed_meta_has_no_grouping(self, tmp_path, capsys):
        """SplitFed has no groups: its meta row says so with nulls."""
        rows = self._rows(tmp_path, ["--scheme", "SplitFed"])
        self._check_schemas(rows)
        meta = rows[0]
        assert meta["scheme"] == "SplitFed"
        assert meta["grouping"] is None and meta["num_groups"] is None

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
