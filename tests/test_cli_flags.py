"""The CLI's flag table: a typed flag overrides one config field.

``repro.cli.FLAGS`` declares every flag once.  These tests hold the
parser to the table, the world's own configs to the fields no flag was
typed for (a churn world keeps its churn under ``--participation``, a
replayed trace its availability under ``--straggler-rate``), and every
configuration-phase error to a sentence naming the flag.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.cli
from repro import nn
from repro.cli import COMMANDS, FLAGS, build_parser, main
from repro.data.gtsrb import GtsrbConfig, SyntheticGTSRB
from repro.experiments.catalog import SCENARIO_REGISTRY, ScenarioEntry, list_scenarios
from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.scenario import ExperimentScenario, fast_scenario
from repro.schemes.base import SchemeConfig
from repro.wireless.system import WirelessConfig

#: the config each ``Flag.field`` prefix names
CONFIGS = {
    "scenario": ExperimentScenario,
    "dataset": GtsrbConfig,
    "wireless": WirelessConfig,
    "scheme": SchemeConfig,
    "dynamics": DynamicsConfig,
}


def _rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _subparsers(parser):
    return next(a for a in parser._actions if a.dest == "command").choices


class TestWorldKeepsUntypedFields:
    def test_participation_keeps_the_churn_worlds_churn(self, tmp_path, capsys):
        """``--participation`` used to replace the world's dynamics with
        a fresh config: no churn, ``failure_model "round"``."""
        path = tmp_path / "churn.jsonl"
        assert main(["run", "--scenario", "churn", "--scheme", "GSFL", "--rounds", "1",
                     "--participation", "0.5", "--trace-out", str(path)]) == 0
        dynamics = _rows(path)[0]["dynamics"]
        assert dynamics["participation"] == 0.5
        assert dynamics["churn_uptime_s"] == 0.15
        assert dynamics["churn_downtime_s"] == 0.05
        assert dynamics["failure_model"] == "mid-activity"

    def test_straggler_rate_keeps_the_replayed_availability(self, tmp_path, capsys):
        """``--straggler-rate`` on a replay used to drop the recorded
        toggle streams: one ``availability`` row instead of one per client."""
        recorded, replayed = tmp_path / "rec.jsonl", tmp_path / "replay.jsonl"
        assert main(["run", "--scenario", "churn", "--rounds", "1",
                     "--trace-out", str(recorded)]) == 0
        assert main(["run", "--scenario", f"replay:{recorded}", "--rounds", "1",
                     "--straggler-rate", "0.1", "--trace-out", str(replayed)]) == 0
        rows = _rows(replayed)
        meta = rows[0]
        assert meta["dynamics"]["availability"] == f"trace:{recorded}"
        assert meta["dynamics"]["straggler_rate"] == 0.1
        availability = [row for row in rows if row["type"] == "availability"]
        assert [row["client"] for row in availability] == list(range(meta["num_clients"]))

    def test_restating_the_static_fleet_keeps_no_dynamics(self, tmp_path, capsys):
        path = tmp_path / "static.jsonl"
        assert main(["run", "--scale", "fast", "--rounds", "1", "--participation", "1.0",
                     "--trace-out", str(path)]) == 0
        assert _rows(path)[0]["dynamics"] is None


class TestTable:
    def test_parser_option_strings_are_the_tables(self):
        for command, sub in _subparsers(build_parser()).items():
            parsed = [
                option for action in sub._actions for option in action.option_strings
                if option not in ("-h", "--help")
            ]
            declared = [row.flag for row in FLAGS if command in row.commands]
            assert parsed == declared, command

    def test_scenarios_takes_only_the_flag_it_reads(self):
        assert [row.flag for row in FLAGS if "scenarios" in row.commands] == ["--seed"]

    def test_one_add_argument_call_site(self):
        """Besides ``scenarios``' positional ``name``, every argument is
        added by the loop over the table."""
        tree = ast.parse(Path(repro.cli.__file__).read_text())
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ]
        positional = [
            call for call in calls
            if call.args and isinstance(call.args[0], ast.Constant) and call.args[0].value == "name"
        ]
        assert len(calls) == 2 and len(positional) == 1

    def test_config_backed_flags_have_no_default(self):
        """A default would count as typed and override the world's field."""
        for row in FLAGS:
            if row.field is not None:
                config, name = row.field.split(".")
                assert row.default is None, row.flag
                owner = CONFIGS[config]
                assert name in {f.name for f in dataclasses.fields(owner)}, row.flag


class _Built(Exception):
    """Raised by the patched ``ExperimentScenario.build``: the draw got
    through the configuration phase."""


#: the commands that build a scenario (``scenarios`` only lists or describes)
BUILDING = [command for command in COMMANDS if command != "scenarios"]
HOSTILE = ("nan", "inf", "-inf", "0", "-1", "1e308", str(2**63), "no-such-choice")
#: in-domain values of the flags whose type alone does not say
INSIDE = {
    "--scenario": [entry.name for entry in list_scenarios()],
    "--transport": ["float32", "int8", "intk:4", "topk:0.25"],
    "--aggregation": ["sync", "async", "bounded:0", "bounded:2"],
    "--trace-out": ["trace.jsonl"],
}


@st.composite
def _draws(draw):
    command = draw(st.sampled_from(BUILDING))
    row = draw(st.sampled_from([r for r in FLAGS if command in r.commands]))
    if row.flag in INSIDE:
        inside = st.sampled_from(INSIDE[row.flag])
    elif row.choices is not None:
        inside = st.sampled_from(list(row.choices))
    elif row.type is int:
        inside = st.integers(0, 64).map(str)
    else:
        inside = st.floats(0.0, 1.0).map(repr)
    return command, row.flag, draw(st.sampled_from(HOSTILE) | inside)


class TestFuzz:
    @settings(
        max_examples=120, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(_draws())
    def test_a_flag_reaches_the_build_or_is_named(self, monkeypatch, tmp_path, capsys, draw):
        """Every draw either gets through the configuration phase to the
        build, or exits 2 with one ``error:`` line naming the flag."""
        command, flag, value = draw

        def built(self):
            raise _Built

        monkeypatch.setattr(ExperimentScenario, "build", built)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        try:
            code = main([command, flag, value])
        except _Built:
            return
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2, (command, flag, value, err)
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0], (command, flag, value, err)


def _refused_before_the_build(monkeypatch, capsys, argv: list[str]) -> None:
    """``argv`` exits 2 with one ``error: FLAG VALUE: ...`` line and
    never reaches ``ExperimentScenario.build``."""

    def no_build(self):
        raise AssertionError("the scenario was built before the check")

    monkeypatch.setattr(ExperimentScenario, "build", no_build)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    flag, value = argv[-2:]
    assert err.startswith(f"error: {flag} {float(value)}: ") and err.count("\n") == 1, err


class TestDomainsBeforeTheBuild:
    """``--heterogeneity`` was checked only by the built fleet and
    ``--failure-rate`` only by the GSFL constructor, both after the
    dataset was rendered and naming the field, not the flag.  A finite
    ``--heterogeneity 1e308``, whose draw overflows a client's FLOP/s,
    still reached the build after that."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1e308"])
    @pytest.mark.parametrize("command", BUILDING)
    def test_heterogeneity(self, command, value, monkeypatch, capsys):
        _refused_before_the_build(monkeypatch, capsys, [command, "--heterogeneity", value])

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "2"])
    def test_failure_rate(self, value, monkeypatch, capsys):
        _refused_before_the_build(
            monkeypatch, capsys, ["run", "--scale", "fast", "--failure-rate", value]
        )


class TestErrorNoTypedFlagFed:
    def test_prints_without_a_flag_prefix(self, monkeypatch, capsys):
        """A world whose own fields clash, with no typed flag behind the
        clash, used to print ``error: : <message>``."""

        def clashing(seed: int) -> ExperimentScenario:
            scenario = fast_scenario(with_wireless=True, seed=seed)
            scenario.num_groups = 50  # past __post_init__; the CLI's replace re-checks
            return scenario

        monkeypatch.setitem(SCENARIO_REGISTRY, "clashing",
                            ScenarioEntry("clashing", "", (), clashing))
        capsys.readouterr()
        assert main(["run", "--scenario", "clashing", "--rounds", "1"]) == 2
        assert capsys.readouterr().err == "error: num_groups (50) cannot exceed num_clients (6)\n"


#: every flag whose value argparse converts to a float
FLOAT_ROWS = [row for row in FLAGS if row.type is float]


class TestNegativeNonNumbers:
    """argparse read the token after a flag as an option unless it looked
    like ``-1`` or ``-.5``: ``--heterogeneity -inf`` exited with "expected
    one argument" while ``--heterogeneity=-inf`` reached the domain check."""

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1e308"])
    @pytest.mark.parametrize("row", FLOAT_ROWS, ids=lambda row: row.flag)
    def test_space_separated_value_is_the_flags(self, row, value, monkeypatch, capsys):
        command = row.commands[0]
        parsed = getattr(build_parser().parse_args([command, row.flag, value]), row.dest)
        assert np.isnan(parsed) if value == "-nan" else parsed == float(value)

        def built(self):
            raise _Built

        monkeypatch.setattr(ExperimentScenario, "build", built)
        outcomes = []
        for argv in ([command, row.flag, value], [command, f"{row.flag}={value}"]):
            capsys.readouterr()
            try:
                code = main(argv)
            except _Built:
                code = "built"
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]


class TestScenariosCommand:
    @pytest.mark.parametrize(
        "argv",
        ["--scale fast", "--scenario churn", "--train-per-class -5", "--dtype float64",
         "--medium contended", "--heterogeneity nan"],
    )
    def test_rejects_a_building_only_flag(self, argv, capsys):
        """``scenarios`` used to accept every common flag, list the
        catalog and exit 0."""
        flag = argv.split()[0]
        with pytest.raises(SystemExit) as exc:
            main(["scenarios", *argv.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestTrainPerClassGuard:
    def test_refuses_a_build_past_memory_that_its_render_alone_fits(
        self, monkeypatch, capsys
    ):
        """Physical memory between the float64 render and the whole build
        used to pass the guard, which sized the render alone."""
        per_class = 10_000
        dataset = dataclasses.replace(fast_scenario().dataset, train_per_class=per_class)
        render = int(dataset.class_counts(per_class).sum()) * 3 * dataset.image_size**2 * 8
        with nn.default_dtype(np.float32):  # the CLI's compute dtype
            physical = (render + SyntheticGTSRB(dataset).peak_bytes()) // 2
        assert render < physical
        real_sysconf = os.sysconf
        pages = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical}
        monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or real_sysconf(name))

        def no_build(self):
            raise AssertionError("the scenario was built before the guard")

        monkeypatch.setattr(ExperimentScenario, "build", no_build)
        assert main(["info", "--scale", "fast", "--train-per-class", str(per_class)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --train-per-class 10000 ") and err.count("\n") == 1
