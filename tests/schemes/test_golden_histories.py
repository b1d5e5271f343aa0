"""Golden-history regression harness: scheme parity, fixture-backed.

PRs 1–2 guaranteed bitwise-identical training histories against the seed
commit by re-running it by hand.  These tests promote that guarantee to
a first-class fixture check: ``tests/fixtures/histories/<scheme>.npz``
freezes each scheme's (rounds, latencies, losses, accuracies) series for
the canonical parity configuration, and every run here must reproduce it
**bitwise** — latency included, since the DES resolution is exact under
the static medium.

The barrier-free aggregation engine must pass the same goldens in its
synchronous limit: ``aggregation="bounded:0"`` parses to the sync-barrier
policy (a zero-lag SSP gate *is* the barrier), so the async-capable
schemes are additionally pinned through that spelling.

Each scheme is pinned in float64 (the parity precision the suite runs
in) and in float32 (the precision the CLI and the ``churn-async-trace``
benchmark run), so a ``repro.nn`` change that moves only single-precision
bits cannot hide behind a matching float64 row.

The split family and FL are further pinned off the canonical
configuration by float64 variant rows (``VARIANTS`` in
``tests/fixtures/regenerate.py``): the ``int8`` codec under sync and
``bounded:2``, GSFL under the ``topk:0.25`` sparsifier, and churn +
participation + stragglers with mid-activity preemption, abort and retry
counts included.

Regenerate fixtures (only when histories are *supposed* to change) with
``PYTHONPATH=src python tests/fixtures/regenerate.py histories``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.experiments.runner import SCHEME_REGISTRY, make_scheme
from tests.fixtures.regenerate import (
    DTYPES,
    GOLDEN_ROUNDS,
    VARIANTS,
    assert_matches_golden,
    fixture_path,
    golden_scenario,
    load_golden,
    run_variant,
    variant_arrays,
)

ALL_SCHEMES = sorted(SCHEME_REGISTRY)
#: schemes that support barrier-free aggregation (sync-limit parity)
ASYNC_SCHEMES = ("GSFL", "SplitFed", "FL")


class TestGoldenHistories:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_scheme_reproduces_golden_bitwise(self, name):
        scheme = make_scheme(name, golden_scenario().build())
        history = scheme.run(GOLDEN_ROUNDS)
        assert_matches_golden(history, name)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_scheme_reproduces_float32_golden_bitwise(self, name):
        with nn.default_dtype(np.float32):
            history = make_scheme(name, golden_scenario().build()).run(GOLDEN_ROUNDS)
        assert_matches_golden(history, name, "float32")


class TestVariantHistories:
    """Codec, barrier-free and dynamics rows of the split family."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_reproduces_golden_bitwise(self, variant):
        with nn.default_dtype(np.float64):
            scheme, history = run_variant(variant)
        assert_matches_golden(
            history, variant, actual=variant_arrays(scheme, history)
        )

    def test_dynamics_variants_exercise_preemption(self):
        """The churn rows must keep aborting, or they pin nothing."""
        for variant, (_, _, dynamics) in VARIANTS.items():
            if dynamics is not None:
                assert int(load_golden(variant)["aborts"]) > 0, variant


class TestSyncLimitOfAsyncEngine:
    """``bounded:0`` must be *exactly* the barrier, goldens included."""

    @pytest.mark.parametrize("name", ASYNC_SCHEMES)
    def test_bounded_zero_matches_golden_bitwise(self, name):
        from dataclasses import replace

        scenario = golden_scenario()
        scenario.scheme = replace(scenario.scheme, aggregation="bounded:0")
        scheme = make_scheme(name, scenario.build())
        assert scheme.aggregation_policy.synchronous
        history = scheme.run(GOLDEN_ROUNDS)
        assert_matches_golden(history, name)
        # The sync barrier never routes through the aggregation server.
        assert scheme.aggregation_updates == []

    @pytest.mark.parametrize("name", ASYNC_SCHEMES)
    def test_explicit_sync_matches_golden_bitwise(self, name):
        from dataclasses import replace

        scenario = golden_scenario()
        scenario.scheme = replace(scenario.scheme, aggregation="sync")
        scheme = make_scheme(name, scenario.build())
        history = scheme.run(GOLDEN_ROUNDS)
        assert_matches_golden(history, name)

    def test_goldens_exist_for_every_registered_scheme(self):
        for name in ALL_SCHEMES:
            for dtype in DTYPES:
                assert fixture_path(name, dtype).exists()


class TestFailureModelParity:
    """Disabled failure models provably cost nothing.

    The mid-activity abort plumbing (preemption deadlines, any-of races,
    recovery waits) must be *event-for-event absent* when the failure
    model is ``none`` or ``round``: attaching a dynamics realization with
    either model reproduces every golden fixture bitwise — latency
    included — for all six schemes.
    """

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    @pytest.mark.parametrize("model", ["none", "round"])
    def test_disabled_failure_models_match_golden_bitwise(self, name, model):
        from repro.experiments.dynamics import DynamicsConfig

        scenario = golden_scenario()
        scenario.dynamics = DynamicsConfig(failure_model=model)
        scheme = make_scheme(name, scenario.build())
        assert scheme.runtime.failure_injector is None
        history = scheme.run(GOLDEN_ROUNDS)
        assert_matches_golden(history, name)
        assert not scheme.recorder.aborts and not scheme.recorder.retries

    def test_mid_activity_without_churn_matches_golden_bitwise(self):
        """No churn trace → nothing can preempt: even ``mid-activity``
        degenerates to the exact historical replay."""
        from repro.experiments.dynamics import DynamicsConfig

        scenario = golden_scenario()
        scenario.dynamics = DynamicsConfig(failure_model="mid-activity")
        scheme = make_scheme("GSFL", scenario.build())
        assert scheme.runtime.failure_injector is None
        history = scheme.run(GOLDEN_ROUNDS)
        assert_matches_golden(history, "GSFL")


class TestRegroupParity:
    """``regroup="static"`` provably costs nothing.

    The static policy maps to *no* regroup hook at all, so runs with it
    (at any cadence) are bitwise identical to the constructor-frozen
    grouping — the golden fixtures — and leave no regroup telemetry.
    """

    @pytest.mark.parametrize("every", [1, 3])
    def test_static_regroup_matches_golden_bitwise(self, every):
        from dataclasses import replace

        scenario = golden_scenario()
        scenario.scheme = replace(
            scenario.scheme, regroup="static", regroup_every=every
        )
        scheme = make_scheme("GSFL", scenario.build())
        assert scheme._regroup_policy is None
        history = scheme.run(GOLDEN_ROUNDS)
        assert_matches_golden(history, "GSFL")
        assert scheme.recorder.regroups == []

    def test_availability_aware_without_churn_matches_golden_bitwise(self):
        """No dynamics layer → no churn signal: the availability policy
        keeps the partition untouched and the run replays the golden
        history exactly (regroup rows record the unchanged partitions)."""
        from dataclasses import replace

        scenario = golden_scenario()
        scenario.scheme = replace(scenario.scheme, regroup="availability_aware")
        scheme = make_scheme("GSFL", scenario.build())
        history = scheme.run(GOLDEN_ROUNDS)
        assert_matches_golden(history, "GSFL")
        assert all(not e.changed for e in scheme.recorder.regroups)
