"""Scenario catalog: registry API, world presets, record -> replay."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.catalog import (
    SCENARIO_REGISTRY,
    describe_scenario,
    export_trace,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario, paper_scenario


class TestRegistryAPI:
    def test_catalog_ships_at_least_six_worlds_beyond_presets(self):
        worlds = [e for e in list_scenarios() if "preset" not in e.tags]
        assert len(worlds) >= 6
        names = {e.name for e in worlds}
        assert {"churn", "diurnal", "cell-outage", "mobility",
                "device-classes", "cross-traffic"} <= names

    def test_entries_carry_metadata(self):
        for entry in list_scenarios():
            assert entry.summary
            assert entry.name in SCENARIO_REGISTRY
            assert callable(entry.builder)

    def test_list_is_sorted(self):
        names = [e.name for e in list_scenarios()]
        assert names == sorted(names)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("fast", summary="dup")(lambda seed=0: None)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown scenario") as excinfo:
            get_scenario("astrology")
        assert "churn" in str(excinfo.value)
        assert "replay:" in str(excinfo.value)

    def test_describe_every_world(self):
        for entry in list_scenarios():
            text = describe_scenario(entry.name)
            assert f"scenario : {entry.name}" in text
            assert "fleet" in text

    def test_describe_device_classes_lists_tiers(self):
        text = describe_scenario("device-classes")
        assert "phone" in text and "edge-box" in text

    def test_describe_cross_traffic_lists_link_load(self):
        text = describe_scenario("cross-traffic")
        assert "burst source" in text and "60%" in text


class TestPresetEquality:
    """``--scenario fast|paper`` must be the flag-built presets, exactly."""

    def test_fast_matches_flag_built(self):
        assert get_scenario("fast", seed=3) == fast_scenario(
            with_wireless=True, seed=3
        )

    def test_paper_matches_flag_built(self):
        assert get_scenario("paper", seed=1) == paper_scenario(
            with_wireless=True, seed=1
        )

    def test_registered_fast_history_is_bitwise_identical(self):
        """Same world -> same run: losses/accuracies match to the bit."""
        runs = []
        for scenario in (get_scenario("fast"), fast_scenario(with_wireless=True)):
            scheme = make_scheme("GSFL", scenario.build())
            history = scheme.run(1)
            points = history.points
            runs.append(([p.train_loss for p in points], history.accuracies,
                         [p.latency_s for p in points]))
        assert runs[0] == runs[1]

    def test_every_world_builds_and_validates(self):
        for entry in list_scenarios():
            scenario = entry.builder(0)
            assert scenario.num_clients >= scenario.num_groups
            if scenario.dynamics is not None:
                scenario.dynamics.validate()


class TestRecordReplay:
    def _record(self, tmp_path, rounds=2):
        path = str(tmp_path / "rec.jsonl")
        scenario = get_scenario("churn")
        scheme = make_scheme("GSFL", scenario.build())
        scheme.run(rounds)
        export_trace(path, scheme, scenario_name="churn")
        return path, scheme

    def test_round_trip_reproduces_round_conditions(self, tmp_path):
        """The replay world re-drives availability exactly: every round
        resolves the same available set and participant list."""
        path, recorded = self._record(tmp_path)
        replayed = make_scheme("GSFL", get_scenario(f"replay:{path}").build())
        replayed.run(2)

        def log(scheme):
            return [
                (rc.round_index, rc.available, rc.participants)
                for rc in scheme.dynamics.round_log
            ]

        assert log(recorded) == log(replayed)

    def test_replay_scenario_carries_recorded_world_shape(self, tmp_path):
        path, recorded = self._record(tmp_path)
        scenario = get_scenario(f"replay:{path}")
        assert scenario.num_clients == 12 and scenario.num_groups == 4
        dyn = scenario.dynamics
        assert dyn.availability == f"trace:{path}"
        assert dyn.failure_model == "mid-activity"
        assert dyn.churn_uptime_s == 0.15

    def test_replay_of_unregistered_scenario_falls_back_to_fast(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        # repro: disable=TRC001 (deliberately partial meta: foreign/older traces fall back to the base world)
        path.write_text(json.dumps({
            "type": "meta", "scenario": "retired-world", "seed": 2,
            "num_clients": 6, "num_groups": 2,
            "dynamics": {"churn_uptime_s": 0.2, "churn_downtime_s": 0.1},
        }) + "\n")
        scenario = get_scenario(f"replay:{path}")
        assert scenario.num_clients == 6
        assert scenario.dynamics.availability == f"trace:{path}"
        assert scenario.dynamics.churn_uptime_s == 0.2

    def test_replay_rebuilds_fleet_on_size_mismatch(self, tmp_path):
        path = tmp_path / "big.jsonl"
        # repro: disable=TRC001 (deliberately partial meta: replay must rebuild the fleet from the shape fields alone)
        path.write_text(json.dumps({
            "type": "meta", "scenario": "fast", "seed": 0,
            "num_clients": 9, "num_groups": 3, "dynamics": None,
        }) + "\n")
        scenario = get_scenario(f"replay:{path}")
        assert scenario.num_clients == 9 and scenario.num_groups == 3

    @pytest.mark.parametrize("drop", [
        ("dynamics", "num_clients", "num_groups", "scenario", "seed"), ("dynamics",),
    ], ids=["bare", "no-dynamics"])
    def test_replay_of_a_meta_row_without_a_field_it_reads_rejected(
        self, tmp_path, capsys, drop
    ):
        """A bare ``{"type": "meta"}`` row used to replay the fast world at
        seed 0 and exit 0."""
        # repro: disable=TRC001 (partial meta on purpose: the fields replay reads, then fewer)
        meta = {"type": "meta", "scenario": "churn", "seed": 0, "num_clients": 12,
                "num_groups": 4, "dynamics": None}
        path = tmp_path / "meta.jsonl"
        path.write_text(json.dumps({k: v for k, v in meta.items() if k not in drop}) + "\n")
        with pytest.raises(ValueError, match=f"meta row lacks {', '.join(drop)}, "):
            get_scenario(f"replay:{path}")
        assert main(["run", "--scenario", f"replay:{path}", "--rounds", "1"]) == 2
        assert "meta row lacks" in capsys.readouterr().err

    def test_replay_without_meta_row_rejected(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        # repro: disable=TRC001 (bare row on purpose: a trace with no meta must be rejected)
        path.write_text(json.dumps({"type": "activity"}) + "\n")
        with pytest.raises(ValueError, match="no leading 'meta' row"):
            get_scenario(f"replay:{path}")

    def test_replay_missing_file_rejected(self):
        with pytest.raises(ValueError, match="cannot read"):
            get_scenario("replay:/nonexistent.jsonl")


@pytest.fixture(scope="module")
def churn_rows(tmp_path_factory):
    """The rows of a recorded 2-round churn trace."""
    path = tmp_path_factory.mktemp("churn") / "rec.jsonl"
    scheme = make_scheme("GSFL", get_scenario("churn").build())
    scheme.run(2)
    export_trace(str(path), scheme, scenario_name="churn")
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestReplayFaults:
    """A replayed field outside its domain exits 2 with one line naming it.

    Each of these used to trace back with a ``TypeError`` (``null``
    seed, fleet size or client, an unknown dynamics key), replay a
    different run and exit 0 (``true`` or ``2.9`` seed, ``1.7`` client,
    a ``"x"`` dynamics dropped for the default failure model), or print
    an empty flag prefix (``error: : num_groups ...``).
    """

    def _replay(self, tmp_path, capsys, rows):
        path = tmp_path / "faulty.jsonl"
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        capsys.readouterr()
        code = main(["run", "--scenario", f"replay:{path}", "--rounds", "1"])
        return code, capsys.readouterr().err, str(path)

    @pytest.mark.parametrize("field, value, domain", [
        ("seed", None, "an integer >= 0"),
        ("seed", True, "an integer >= 0"),
        ("seed", 2.9, "an integer >= 0"),
        ("num_clients", None, "an integer >= 1"),
        ("dynamics", "x", "an object or null"),
    ])
    def test_meta_field_outside_its_domain(
        self, churn_rows, tmp_path, capsys, field, value, domain
    ):
        meta = dict(churn_rows[0], **{field: value})
        code, err, path = self._replay(tmp_path, capsys, [meta, *churn_rows[1:]])
        assert code == 2
        assert err == (f"error: --scenario replay:{path}: {path}:1: {field} must be "
                       f"{domain}, got {json.dumps(value)}\n")
        with pytest.raises(ValueError, match=f"{field} must be"):
            get_scenario(f"replay:{path}")

    def test_unknown_dynamics_key(self, churn_rows, tmp_path, capsys):
        meta = dict(churn_rows[0], dynamics={**churn_rows[0]["dynamics"], "bogus": 1})
        code, err, path = self._replay(tmp_path, capsys, [meta, *churn_rows[1:]])
        assert code == 2
        assert err == (f"error: --scenario replay:{path}: {path}:1: dynamics has keys "
                       "DynamicsConfig does not take: ['bogus']\n")

    @pytest.mark.parametrize("field, value, kind", [
        ("participation", "x", "a real number"),
        ("seed", None, "an integer"),
        ("max_retries", 1.5, "an integer"),
        ("min_participants", True, "an integer"),
    ])
    def test_dynamics_value_of_the_wrong_type(
        self, churn_rows, tmp_path, capsys, field, value, kind
    ):
        """A ``"x"`` participation or a ``null`` seed traced back with a
        ``TypeError``; a ``1.5`` retry budget or a ``true`` participant
        floor replayed without a word."""
        dynamics = {**churn_rows[0]["dynamics"], field: value}
        meta = dict(churn_rows[0], dynamics=dynamics)
        code, err, path = self._replay(tmp_path, capsys, [meta, *churn_rows[1:]])
        assert code == 2
        assert err == (f"error: --scenario replay:{path}: {path}:1: dynamics: {field} "
                       f"must be {kind}, got {value!r}\n")

    @pytest.mark.parametrize("field", ["straggler_slowdown", "churn_uptime_s"])
    def test_dynamics_value_too_large_for_a_float(self, churn_rows, tmp_path, capsys, field):
        """A 401-digit JSON integer passed the type check as an integral
        real and traced back with ``OverflowError``."""
        dynamics = {**churn_rows[0]["dynamics"], field: 10**400}
        meta = dict(churn_rows[0], dynamics=dynamics)
        code, err, path = self._replay(tmp_path, capsys, [meta, *churn_rows[1:]])
        assert code == 2
        assert err == (f"error: --scenario replay:{path}: {path}:1: dynamics: {field} "
                       "must be a real number, got a number too large for a float\n")

    def test_more_groups_than_clients(self, churn_rows, tmp_path, capsys):
        meta = dict(churn_rows[0], num_groups=50)
        code, err, path = self._replay(tmp_path, capsys, [meta, *churn_rows[1:]])
        assert code == 2
        assert err == (f"error: --scenario replay:{path}: "
                       "num_groups (50) cannot exceed num_clients (12)\n")

    @pytest.mark.parametrize("value", [None, 1.7])
    def test_availability_client_outside_its_domain(self, churn_rows, tmp_path, capsys, value):
        assert churn_rows[1]["type"] == "availability"
        availability = dict(churn_rows[1], client=value)
        code, err, path = self._replay(
            tmp_path, capsys, [churn_rows[0], availability, *churn_rows[2:]]
        )
        assert code == 2
        assert err == (f"error: {path}:2: client must be an integer >= 0, "
                       f"got {json.dumps(value)}\n")

    def test_recorded_trace_replays(self, churn_rows, tmp_path, capsys):
        """The unmodified file these faults start from replays cleanly."""
        code, err, _ = self._replay(tmp_path, capsys, churn_rows)
        assert (code, err) == (0, "")
