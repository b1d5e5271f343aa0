"""Scenario-dynamics tests: churn windows, participation, stragglers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.availability import make_availability_process
from repro.experiments.dynamics import ClientDynamics, DynamicsConfig
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario


class TestDynamicsConfig:
    def test_defaults_are_identity(self):
        cfg = DynamicsConfig()
        assert cfg.participation == 1.0
        assert not cfg.has_churn
        assert cfg.straggler_rate == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(participation=0.0)
        with pytest.raises(ValueError):
            DynamicsConfig(participation=1.5)
        with pytest.raises(ValueError):
            DynamicsConfig(churn_uptime_s=10.0)  # downtime missing
        with pytest.raises(ValueError):
            DynamicsConfig(straggler_rate=1.5)
        with pytest.raises(ValueError):
            DynamicsConfig(straggler_slowdown=0.5)

    @pytest.mark.parametrize("slowdown", [float("nan"), float("inf")])
    def test_non_finite_straggler_slowdown_rejected(self, slowdown):
        """NaN and inf both passed the ``< 1`` check."""
        with pytest.raises(ValueError, match="straggler_slowdown must be finite and >= 1"):
            DynamicsConfig(straggler_rate=0.5, straggler_slowdown=slowdown)

    @pytest.mark.parametrize("uptime,downtime", [(0.0, 5.0), (5.0, 0.0), (0.0, 0.0)])
    def test_degenerate_churn_windows_rejected(self, uptime, downtime):
        """A zero-length window makes ``rng.exponential(0)`` emit
        zero-length toggles and the availability trace never advances —
        must fail at construction, not hang at query time."""
        with pytest.raises(ValueError, match="must be > 0"):
            DynamicsConfig(churn_uptime_s=uptime, churn_downtime_s=downtime)

    @pytest.mark.parametrize(
        "uptime,downtime,field",
        [
            (float("inf"), 5.0, "churn_uptime_s"),
            (5.0, float("inf"), "churn_downtime_s"),
            (float("nan"), 5.0, "churn_uptime_s"),
        ],
    )
    def test_non_finite_churn_windows_rejected(self, uptime, downtime, field):
        """An infinite down-window sent the all-down wait to ``t = inf``
        and the availability trace then grew forever; an infinite
        up-window silently ran without churn."""
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            DynamicsConfig(churn_uptime_s=uptime, churn_downtime_s=downtime)
        with pytest.raises(ValueError, match=f"{field} must be > 0 and finite"):
            make_availability_process(
                "exponential", 3, np.random.SeedSequence(0), uptime, downtime
            )

    @pytest.mark.parametrize("field, value, kind", [
        ("seed", None, "an integer"),
        ("seed", 1.0, "an integer"),
        ("min_participants", True, "an integer"),
        ("max_retries", 1.5, "an integer"),
        ("participation", "x", "a real number"),
        ("participation", True, "a real number"),
        ("straggler_rate", None, "a real number"),
        ("straggler_slowdown", [4.0], "a real number"),
        ("churn_uptime_s", "10", "a real number"),
        ("failure_model", 1, "a string"),
        ("availability", None, "a string"),
    ])
    def test_field_of_the_wrong_type_rejected(self, field, value, kind):
        """A replayed trace may carry any JSON value: each field names
        its type, and a bool never passes as a number."""
        windows = dict(churn_uptime_s=10.0, churn_downtime_s=5.0)
        with pytest.raises(ValueError, match=f"^{field} must be {kind}, got "):
            DynamicsConfig(**{**windows, field: value})

    @pytest.mark.parametrize("field", [
        "participation", "churn_uptime_s", "churn_downtime_s", "straggler_rate",
        "straggler_slowdown",
    ])
    def test_integer_too_large_for_a_float_rejected(self, field):
        """``straggler_slowdown=10**400`` died with ``OverflowError`` in
        ``math.isfinite``; as a churn window it passed and died at the
        first ``available_at``."""
        windows = dict(churn_uptime_s=10.0, churn_downtime_s=5.0)
        with pytest.raises(ValueError, match=(
            f"^{field} must be a real number, got a number too large for a float$"
        )):
            DynamicsConfig(**{**windows, field: 10**400})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            DynamicsConfig(seed=-1)

    def test_numpy_scalars_and_int_windows_accepted(self):
        cfg = DynamicsConfig(churn_uptime_s=10, churn_downtime_s=np.float64(5.0),
                             participation=1, seed=np.int64(3))
        assert ClientDynamics(cfg, num_clients=2).available_at(0, 0.0)

    def test_mutated_degenerate_windows_rejected_by_client_dynamics(self):
        """The config dataclass is mutable; ClientDynamics re-validates so
        a window zeroed after construction still fails loudly instead of
        looping forever inside ``available_at``."""
        cfg = DynamicsConfig(churn_uptime_s=10.0, churn_downtime_s=5.0)
        cfg.churn_uptime_s = 0.0
        with pytest.raises(ValueError, match="churn_uptime_s must be > 0"):
            ClientDynamics(cfg, num_clients=3)


class TestAvailabilityTrace:
    def test_no_churn_always_available(self):
        dyn = ClientDynamics(DynamicsConfig(), num_clients=4)
        assert all(dyn.available_at(c, 1e9) for c in range(4))

    def test_churn_is_deterministic_per_seed(self):
        cfg = DynamicsConfig(churn_uptime_s=10.0, churn_downtime_s=5.0, seed=7)
        a = ClientDynamics(cfg, num_clients=5)
        b = ClientDynamics(cfg, num_clients=5)
        ts = np.linspace(0.0, 200.0, 101)
        for c in range(5):
            assert [a.available_at(c, t) for t in ts] == [
                b.available_at(c, t) for t in ts
            ]

    def test_churn_independent_of_query_order(self):
        cfg = DynamicsConfig(churn_uptime_s=3.0, churn_downtime_s=3.0, seed=1)
        forward = ClientDynamics(cfg, num_clients=3)
        backward = ClientDynamics(cfg, num_clients=3)
        got_fwd = {c: forward.available_at(c, 50.0) for c in range(3)}
        got_bwd = {c: backward.available_at(c, 50.0) for c in reversed(range(3))}
        assert got_fwd == got_bwd

    def test_clients_start_up_and_eventually_cycle(self):
        cfg = DynamicsConfig(churn_uptime_s=2.0, churn_downtime_s=2.0, seed=0)
        dyn = ClientDynamics(cfg, num_clients=8)
        assert all(dyn.available_at(c, 0.0) for c in range(8))
        # Over a long horizon every client must have been down at least once.
        ts = np.linspace(0.0, 100.0, 2001)
        for c in range(8):
            assert not all(dyn.available_at(c, t) for t in ts)


class TestFailureSource:
    """``up_deadline`` / ``recovery_s``: what the runtime asks the
    dynamics under mid-activity preemption."""

    def _dyn(self):
        cfg = DynamicsConfig(churn_uptime_s=1.0, churn_downtime_s=1.0, seed=5,
                             failure_model="mid-activity")
        return ClientDynamics(cfg, num_clients=4)

    def test_up_client_runs_to_the_end_of_its_window(self):
        dyn = self._dyn()
        for c in range(4):
            for t in np.linspace(0.0, 20.0, 81):
                if dyn.available_at(c, t):
                    deadline = dyn.up_deadline(c, t)
                    assert deadline > t and not dyn.available_at(c, deadline)
                    assert all(dyn.available_at(c, s) for s in np.linspace(t, deadline, 9)[:-1])
                    assert dyn.recovery_s(c, t) is None

    def test_down_client_aborts_now_and_recovers_at_its_next_toggle(self):
        dyn = self._dyn()
        seen = 0
        for c in range(4):
            for t in np.linspace(0.0, 20.0, 81):
                if not dyn.available_at(c, t):
                    seen += 1
                    assert dyn.up_deadline(c, t) == t
                    back = dyn.recovery_s(c, t)
                    assert back > t and dyn.available_at(c, back)
        assert seen

    def test_no_churn_no_failure(self):
        dyn = ClientDynamics(DynamicsConfig(), num_clients=2)
        assert dyn.up_deadline(0, 3.0) is None
        assert dyn.recovery_s(0, 3.0) is None


class TestRoundConditions:
    def test_full_participation_without_dynamics_features(self):
        dyn = ClientDynamics(DynamicsConfig(), num_clients=6)
        cond = dyn.begin_round(0, 0.0)
        assert cond.participants == tuple(range(6))
        assert cond.slowdowns == {}

    def test_partial_participation_samples_subset(self):
        dyn = ClientDynamics(DynamicsConfig(participation=0.5, seed=2), num_clients=10)
        cond = dyn.begin_round(0, 0.0)
        assert len(cond.participants) == 5
        assert set(cond.participants) <= set(range(10))
        assert list(cond.participants) == sorted(cond.participants)

    def test_participation_respects_min_participants(self):
        dyn = ClientDynamics(
            DynamicsConfig(participation=0.01, min_participants=2), num_clients=8
        )
        cond = dyn.begin_round(0, 0.0)
        assert len(cond.participants) == 2

    def test_stragglers_have_configured_slowdown(self):
        dyn = ClientDynamics(
            DynamicsConfig(straggler_rate=1.0, straggler_slowdown=3.5), num_clients=4
        )
        cond = dyn.begin_round(0, 0.0)
        assert set(cond.slowdowns) == set(range(4))
        assert all(v == 3.5 for v in cond.slowdowns.values())


class TestUnitRoundConditions:
    """Per-unit resolution used by barrier-free aggregation pipelines."""

    def test_identity_without_disturbances(self):
        dyn = ClientDynamics(DynamicsConfig(), num_clients=6)
        members, slowdowns = dyn.unit_round_conditions([1, 3, 5], 42.0)
        assert members == [1, 3, 5] and slowdowns == {}

    def test_members_filtered_by_churn_trace(self):
        cfg = DynamicsConfig(churn_uptime_s=5.0, churn_downtime_s=5.0, seed=2)
        dyn = ClientDynamics(cfg, num_clients=6)
        t = 100.0
        members, _ = dyn.unit_round_conditions(list(range(6)), t)
        assert members == [c for c in range(6) if dyn.available_at(c, t)]

    def test_participation_keeps_at_least_one_member(self):
        cfg = DynamicsConfig(participation=0.01, seed=0)
        dyn = ClientDynamics(cfg, num_clients=4)
        for _ in range(20):
            members, _ = dyn.unit_round_conditions([0, 1, 2, 3], 0.0)
            assert members  # a unit never stalls on sampling alone

    def test_stragglers_only_among_members(self):
        cfg = DynamicsConfig(straggler_rate=1.0, straggler_slowdown=3.0)
        dyn = ClientDynamics(cfg, num_clients=6)
        members, slowdowns = dyn.unit_round_conditions([2, 4], 0.0)
        assert set(slowdowns) == set(members) == {2, 4}
        assert all(v == 3.0 for v in slowdowns.values())

    def test_next_recovery_restricted_to_unit_members(self):
        cfg = DynamicsConfig(churn_uptime_s=1.0, churn_downtime_s=50.0, seed=3)
        dyn = ClientDynamics(cfg, num_clients=6)
        t = 200.0
        down = [c for c in range(6) if not dyn.available_at(c, t)]
        if len(down) >= 2:
            only_last = dyn.next_recovery_s(t, clients=[down[-1]])
            assert only_last is not None and only_last > t
            # restricting the scan can only delay (or match) the fleet-wide
            # earliest recovery
            assert only_last >= dyn.next_recovery_s(t)


class TestSchemesUnderDynamics:
    def _scenario(self, **dyn_kwargs):
        scenario = fast_scenario(with_wireless=True)
        scenario.dynamics = DynamicsConfig(**dyn_kwargs)
        return scenario

    def test_fl_partial_participation_traces_fewer_uploads(self):
        scenario = self._scenario(participation=0.5, seed=0)
        scheme = make_scheme("FL", scenario.build())
        scheme.run(1)
        uploads = scheme.recorder.filter(phases=["model_upload"])
        assert len(uploads) == 3  # 6 clients at 50%

    @pytest.mark.parametrize("name", ["FL", "SL", "SplitFed", "PSL", "GSFL"])
    def test_schemes_run_under_churn(self, name):
        scenario = self._scenario(
            churn_uptime_s=0.5, churn_downtime_s=0.5, participation=0.9, seed=4
        )
        scheme = make_scheme(name, scenario.build())
        history = scheme.run(3)
        assert len(history.points) == 3
        assert np.isfinite(history.total_latency_s)

    def test_gsfl_churn_changes_latency_and_participation(self):
        plain = make_scheme("GSFL", fast_scenario(with_wireless=True).build()).run(3)
        scenario = self._scenario(churn_uptime_s=0.4, churn_downtime_s=0.4, seed=9)
        churned_scheme = make_scheme("GSFL", scenario.build())
        churned = churned_scheme.run(3)
        assert churned.total_latency_s != pytest.approx(plain.total_latency_s)

    def test_straggler_latency_grows_with_slowdown(self):
        lat = []
        for slowdown in (1.0, 8.0):
            scenario = self._scenario(
                straggler_rate=1.0, straggler_slowdown=slowdown, seed=0
            )
            lat.append(
                make_scheme("GSFL", scenario.build()).run(1).total_latency_s
            )
        assert lat[1] > lat[0] * 1.5

    def test_all_down_window_advances_clock_instead_of_freezing(self):
        """When every client is down at a round start the driver waits
        for the first recovery instead of replaying the same all-down
        snapshot at a frozen clock forever."""
        # Mean up-window of 1 ms vs rounds of ~100 ms: after round 0
        # every client is down with overwhelming probability, so round 1
        # must wait out the first recovery instead of freezing at 0 cost.
        scenario = self._scenario(
            churn_uptime_s=0.001, churn_downtime_s=50.0, seed=3
        )
        scheme = make_scheme("FL", scenario.build())
        history = scheme.run(3)
        assert len(history.points) == 3
        assert history.total_latency_s > 1.0  # spans a waited-out window
        lats = [p.latency_s for p in history.points]
        assert all(b > a for a, b in zip(lats, lats[1:]))

    def test_next_recovery_reports_earliest_up_transition(self):
        cfg = DynamicsConfig(churn_uptime_s=1.0, churn_downtime_s=100.0, seed=3)
        dyn = ClientDynamics(cfg, num_clients=6)
        t = 500.0
        resume = dyn.next_recovery_s(t)
        if resume is not None:
            assert resume > t
            down_now = [c for c in range(6) if not dyn.available_at(c, t)]
            assert any(dyn.available_at(c, resume) for c in down_now)
        assert ClientDynamics(DynamicsConfig(), 3).next_recovery_s(0.0) is None

    def test_all_clients_down_skips_round_gracefully(self):
        """A round with zero participants must not crash; the model simply
        carries over and the round costs nothing."""
        from repro.experiments.dynamics import RoundConditions

        scenario = fast_scenario(with_wireless=True)
        built = scenario.build()
        scheme = make_scheme("FL", built)

        class Nobody:
            def begin_round(self, r, now):
                return RoundConditions(r, (), (), {})

            def next_recovery_s(self, t):
                return None  # nobody ever comes back

        scheme.dynamics = Nobody()
        history = scheme.run(1)
        assert len(history.points) == 1
        assert history.total_latency_s == 0.0


class TestParticipationRounding:
    """The sample size rounds half away from zero: ``floor(p*n + 0.5)``.

    The old ``int(round(p * n))`` banker's-rounded half-cases to even
    (0.5 of 5 available -> 2), so the sampled fraction dipped or jumped
    depending on fleet-size parity.
    """

    @pytest.mark.parametrize(
        "participation,n,expected",
        [
            (0.5, 5, 3),    # the banker's-rounding case: round(2.5) == 2
            (0.5, 10, 5),
            (0.25, 10, 3),  # round(2.5) == 2 here too
            (0.5, 6, 3),
            (0.1, 5, 1),    # round(0.5) == 0, then clamped; now direct
            (0.75, 2, 2),
            (0.5, 1, 1),
        ],
    )
    def test_half_case_grid(self, participation, n, expected):
        dyn = ClientDynamics(
            DynamicsConfig(participation=participation, seed=0), num_clients=n
        )
        cond = dyn.begin_round(0, 0.0)
        assert len(cond.participants) == expected


class TestUnitMemberOrder:
    """Unit participant lists preserve the caller's member order on both
    sampling paths (the top-up path used to sort, the Bernoulli path
    didn't — downstream relay-chain iteration depended on which fired)."""

    MEMBERS = [5, 2, 0, 3]

    def _order_preserved(self, members, result):
        chosen = set(result)
        assert result == [c for c in members if c in chosen]

    def test_bernoulli_path_preserves_member_order(self):
        dyn = ClientDynamics(DynamicsConfig(participation=0.9, seed=1), 6)
        for _ in range(30):
            members, _ = dyn.unit_round_conditions(list(self.MEMBERS), 0.0)
            self._order_preserved(self.MEMBERS, members)

    def test_top_up_path_preserves_member_order(self):
        # participation 0.01 makes the Bernoulli pass come up empty almost
        # every draw, forcing the min-participants top-up.
        dyn = ClientDynamics(
            DynamicsConfig(participation=0.01, min_participants=2, seed=1), 6
        )
        for _ in range(30):
            members, _ = dyn.unit_round_conditions(list(self.MEMBERS), 0.0)
            assert len(members) >= 2
            self._order_preserved(self.MEMBERS, members)

    def test_resolution_deterministic_per_seed(self):
        def run():
            dyn = ClientDynamics(
                DynamicsConfig(participation=0.3, min_participants=2, seed=5), 6
            )
            return [
                dyn.unit_round_conditions(list(self.MEMBERS), float(i))[0]
                for i in range(10)
            ]

        assert run() == run()


class TestWindowBoundary:
    """A toggle at ``t`` counts as flipped at ``t`` (half-open windows,
    ``bisect_right`` semantics), and the export clip keeps it."""

    def _dynamics(self, tmp_path, toggles):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"type": "availability", "client": 0, "toggles": toggles})
            + "\n"
        )
        return ClientDynamics(
            DynamicsConfig(availability=f"trace:{path}"), num_clients=1
        )

    def test_up_instants_are_half_open_windows(self, tmp_path):
        """A failure (0.5, 2.0) and a recovery (1.25) toggle at ``t``
        both count at ``t``."""
        dyn = self._dynamics(tmp_path, [0.5, 1.25, 2.0, 3.5])
        up = {0.0: True, 0.25: True, 0.5: False, 1.0: False, 1.25: True,
              1.5: True, 2.0: False, 2.5: False, 3.0: False}
        assert {t: dyn.available_at(0, t) for t in up} == up

    def test_export_toggles_keep_boundary_for_replay(self, tmp_path):
        dyn = self._dynamics(tmp_path, [1.0, 2.0, 3.0])
        assert dyn.availability_toggles(0, horizon=2.0) == [1.0, 2.0]


class TestRoundLog:
    def test_every_resolution_is_logged_with_its_clock(self):
        dyn = ClientDynamics(DynamicsConfig(), num_clients=3)
        dyn.begin_round(0, 0.0)
        dyn.begin_round(1, 1.5)
        dyn.begin_round(1, 2.25)  # re-resolution after an all-down wait
        assert [(rc.round_index, rc.now_s) for rc in dyn.round_log] == [
            (0, 0.0), (1, 1.5), (1, 2.25)
        ]

    def test_scheme_run_populates_round_log(self):
        scenario = fast_scenario(with_wireless=True)
        scenario.dynamics = DynamicsConfig(
            churn_uptime_s=0.5, churn_downtime_s=0.2, seed=2
        )
        scheme = make_scheme("GSFL", scenario.build())
        scheme.run(2)
        log = scheme.dynamics.round_log
        assert [rc.round_index for rc in log][:2] == [0, 1]
        assert all(rc.now_s >= 0.0 for rc in log)
