"""Fuzz of ``--scenario replay:``: a damaged trace replays or exits 2.

Each example starts from a recorded churn trace and damages it once:
a field a replay reader reads set to a value of another type or out of
range, a recorded dynamics value so damaged, an unknown key added to the
recorded dynamics, the file cut short
at a byte or a row, or the rows shuffled.  ``repro.cli run`` on the
result must either replay (exit 0) or exit 2 with one ``error:`` line;
it must never raise.  The ``weekly`` hypothesis profile runs it 16x.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.devtools.trace_schema import READ_DOMAINS
from repro.experiments.catalog import export_trace, get_scenario
from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import ExperimentScenario

#: values outside most fields' domains: null, bools, non-integral
#: floats, strings, out-of-range numbers (one too large for a float) and
#: lists, and a few that are inside some domain (a huge seed, an empty
#: object, no toggles)
HOSTILE = [
    None, True, False, 2.5, -0.5, "x", "churn", "", -1, 0, 13, 50, 2**64, 10**400,
    [], [0.3, 0.1], [-1.0], {},
]

DYNAMICS_FIELDS = {f.name for f in fields(DynamicsConfig)}


@pytest.fixture(scope="module")
def recorded(tmp_path_factory) -> list[str]:
    """The lines of a recorded 2-round churn trace."""
    path = tmp_path_factory.mktemp("recorded") / "churn.jsonl"
    scheme = make_scheme("GSFL", get_scenario("churn").build())
    scheme.run(2)
    export_trace(str(path), scheme, scenario_name="churn")
    return path.read_text().splitlines(keepends=True)


@st.composite
def _damage(draw, lines: list[str]) -> str:
    """One damaged copy of the trace ``lines``, as file text."""
    rows = [json.loads(line) for line in lines]
    kind = draw(st.sampled_from(
        ["field", "dynamics-value", "dynamics-key", "cut-bytes", "cut-rows", "shuffle"]
    ))
    if kind == "field":
        row_type = draw(st.sampled_from(sorted(READ_DOMAINS)))
        index = draw(st.sampled_from([i for i, row in enumerate(rows)
                                      if row["type"] == row_type]))
        field = draw(st.sampled_from(sorted(READ_DOMAINS[row_type])))
        rows[index] = {**rows[index], field: draw(st.sampled_from(HOSTILE))}
    elif kind == "dynamics-value":
        field = draw(st.sampled_from(sorted(DYNAMICS_FIELDS)))
        rows[0] = {**rows[0], "dynamics": {**rows[0]["dynamics"],
                                           field: draw(st.sampled_from(HOSTILE))}}
    elif kind == "dynamics-key":
        key = draw(st.text(max_size=12).filter(lambda k: k not in DYNAMICS_FIELDS))
        rows[0] = {**rows[0], "dynamics": {**rows[0]["dynamics"], key: 1}}
    elif kind == "cut-bytes":
        text = "".join(lines)
        return text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "cut-rows":
        rows = rows[:draw(st.integers(0, len(rows) - 1))]
    else:
        rows = draw(st.permutations(rows))
    return "".join(json.dumps(row) + "\n" for row in rows)


class TestReplayFuzz:
    @settings(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_damaged_trace_replays_or_exits_2(self, recorded, tmp_path, capsys, data):
        text = data.draw(_damage(recorded))
        path = tmp_path / "damaged.jsonl"
        path.write_text(text)
        capsys.readouterr()
        code = main(["run", "--scenario", f"replay:{path}", "--rounds", "1"])
        err = capsys.readouterr().err
        assert code in (0, 2), err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        else:
            assert err == ""


class TestReplayedFleetBound:
    """A replayed ``num_clients`` the fast world cannot give one training
    sample each (its split holds 240) is refused before the build.

    ``100000`` used to exit 2 with ``cannot split 240 samples across
    100000 clients`` and ``10**400`` with numpy's ``Maximum allowed
    dimension exceeded``; neither named the field or the trace line."""

    @pytest.mark.parametrize(
        "num_clients", [241, 100000, 10**400], ids=["241", "100000", "10**400"]
    )
    def test_too_many_clients_exits_2_naming_the_field(
        self, recorded, tmp_path, capsys, monkeypatch, num_clients
    ):
        rows = [json.loads(line) for line in recorded]
        rows[0] = {**rows[0], "num_clients": num_clients}
        path = tmp_path / "fleet.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))

        def no_build(self):
            raise AssertionError("the replayed world was built")

        monkeypatch.setattr(ExperimentScenario, "build", no_build)
        capsys.readouterr()
        code = main(["run", "--scenario", f"replay:{path}", "--rounds", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --scenario replay:{path}: {path}:1: num_clients must be at most "
            f"240 (one training sample per client in the replayed world), got {num_clients}\n"
        )

    def test_one_sample_per_client_replays(self, recorded, tmp_path):
        rows = [json.loads(line) for line in recorded]
        rows[0] = {**rows[0], "num_clients": 240}
        path = tmp_path / "fleet.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert get_scenario(f"replay:{path}").num_clients == 240
