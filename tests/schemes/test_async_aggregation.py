"""Barrier-free aggregation: policies, engine semantics, scheme behavior.

Complements the golden-history suite (which pins the *synchronous limit*
bitwise): here the barrier-free paths themselves are exercised — policy
parsing and weighting, staleness bounds, determinism under a fixed seed,
and the latency benefit over the barrier under straggler injection.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.sim.server import (
    BoundedStaleness,
    PolynomialStaleness,
    SyncBarrier,
    parse_aggregation,
)

ASYNC_SCHEMES = ("GSFL", "SplitFed", "FL")


def build_scenario(aggregation="async", heterogeneity=0.0, dynamics=None, seed=0):
    scenario = fast_scenario(with_wireless=True, seed=seed)
    if heterogeneity:
        scenario.wireless = replace(scenario.wireless, heterogeneity=heterogeneity)
    scenario.scheme = replace(scenario.scheme, aggregation=aggregation)
    scenario.dynamics = dynamics
    return scenario


def history_tuple(history):
    return (
        tuple(p.round_index for p in history.points),
        tuple(p.latency_s for p in history.points),
        tuple(p.train_loss for p in history.points),
        tuple(p.test_accuracy for p in history.points),
    )


class TestParseAggregation:
    def test_sync(self):
        assert isinstance(parse_aggregation("sync"), SyncBarrier)

    def test_async(self):
        policy = parse_aggregation("async")
        assert isinstance(policy, PolynomialStaleness)
        assert policy.max_lag is None and not policy.synchronous

    def test_bounded(self):
        policy = parse_aggregation("bounded:3")
        assert isinstance(policy, BoundedStaleness)
        assert policy.max_lag == 3 and not policy.synchronous

    def test_bounded_zero_is_the_sync_barrier(self):
        assert isinstance(parse_aggregation("bounded:0"), SyncBarrier)

    @pytest.mark.parametrize(
        "spec", ["", "Sync", "bounded", "bounded:", "bounded:-1", "bounded:x", "fifo"]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_aggregation(spec)

    def test_polynomial_weight_decays_monotonically(self):
        policy = PolynomialStaleness(alpha=0.5)
        weights = [policy.weight(s) for s in range(5)]
        assert weights[0] == 1.0
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert policy.weight(3) == pytest.approx(0.5)

    def test_bounded_requires_positive_lag(self):
        with pytest.raises(ValueError):
            BoundedStaleness(0)


class TestAsyncSchemes:
    @pytest.mark.parametrize("name", ASYNC_SCHEMES)
    def test_async_run_produces_full_history(self, name):
        scheme = make_scheme(name, build_scenario("async").build())
        history = scheme.run(3)
        assert len(history.points) == 3
        assert history.total_latency_s > 0
        assert len(scheme.round_timings) == 3
        assert scheme.aggregation_updates  # barrier-free runs log commits

    @pytest.mark.parametrize("name", ASYNC_SCHEMES)
    def test_async_deterministic_under_seed(self, name):
        runs = []
        for _ in range(2):
            scheme = make_scheme(name, build_scenario("bounded:2").build())
            history = scheme.run(2)
            runs.append((history_tuple(history), tuple(scheme.aggregation_updates)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", ["SL", "CL", "PSL"])
    def test_sequential_schemes_reject_async(self, name):
        scheme = make_scheme(name, build_scenario("async").build())
        with pytest.raises(ValueError, match="does not support"):
            scheme.run(1)

    def test_mixing_alpha_normalized_by_sample_weight(self):
        scheme = make_scheme("GSFL", build_scenario("async").build())
        scheme.run(2)
        for u in scheme.aggregation_updates:
            assert 0.0 < u.alpha <= u.weight / sum(
                scheme._async_unit_weight(g) for g in scheme._async_units()
            ) + 1e-12


class TestStalenessBound:
    @pytest.mark.parametrize("bound", [1, 2])
    def test_observed_staleness_never_exceeds_k(self, bound):
        dynamics = DynamicsConfig(straggler_rate=0.5, straggler_slowdown=6.0, seed=0)
        scheme = make_scheme(
            "GSFL",
            build_scenario(f"bounded:{bound}", heterogeneity=1.0, dynamics=dynamics).build(),
        )
        scheme.run(4)
        staleness = [u.staleness for u in scheme.aggregation_updates]
        assert staleness and max(staleness) <= bound

    def test_heterogeneous_async_observes_nonzero_staleness(self):
        dynamics = DynamicsConfig(straggler_rate=0.5, straggler_slowdown=6.0, seed=0)
        scheme = make_scheme(
            "GSFL",
            build_scenario("async", heterogeneity=1.0, dynamics=dynamics).build(),
        )
        scheme.run(4)
        assert max(u.staleness for u in scheme.aggregation_updates) > 0


class TestAsyncLatencyBenefit:
    def test_async_beats_sync_under_stragglers(self):
        """Fast groups lap stragglers instead of waiting at the barrier:
        total time for every group to finish its rounds drops (per-round
        stragglers hit random groups, so the sync sum-of-max exceeds the
        async max-of-sums)."""
        results = {}
        for mode in ("sync", "bounded:2"):
            dynamics = DynamicsConfig(
                straggler_rate=0.4, straggler_slowdown=5.0, seed=0
            )
            scheme = make_scheme(
                "GSFL", build_scenario(mode, dynamics=dynamics).build()
            )
            results[mode] = scheme.run(4).total_latency_s
        assert results["bounded:2"] < results["sync"]

    def test_async_couples_timing_to_learning_by_design(self):
        """The sync engine keeps timing and learning decoupled (pinned in
        ``test_runtime_parity.py``); barrier-free aggregation deliberately
        breaks that — *when* a group commits decides what snapshot the
        next group trains on and how its update is staleness-weighted.
        Straggler injection must therefore reorder the commit log (and is
        allowed to move the accuracy trajectory)."""
        plain_scheme = make_scheme("GSFL", build_scenario("bounded:2").build())
        plain = plain_scheme.run(2)
        dynamics = DynamicsConfig(straggler_rate=0.6, straggler_slowdown=8.0, seed=0)
        slowed_scheme = make_scheme(
            "GSFL", build_scenario("bounded:2", dynamics=dynamics).build()
        )
        slowed = slowed_scheme.run(2)
        assert slowed.total_latency_s > plain.total_latency_s
        plain_log = [(u.unit, u.round_index) for u in plain_scheme.aggregation_updates]
        slowed_log = [(u.unit, u.round_index) for u in slowed_scheme.aggregation_updates]
        assert plain_log != slowed_log


class TestSweepIntegration:
    def test_aggregation_is_sweepable_scheme_config_knob(self):
        from repro.experiments.sweep import ParameterSweep, SweepAxis

        sweep = ParameterSweep(
            base_scenario_factory=lambda: fast_scenario(with_wireless=True)
        )
        rows = sweep.run(
            scheme="GSFL",
            num_rounds=1,
            axis=SweepAxis("aggregation", ["sync", "bounded:1"], target="scheme_config"),
        )
        assert [row.value for row in rows] == ["sync", "bounded:1"]
        assert all(row.total_latency_s > 0 for row in rows)
