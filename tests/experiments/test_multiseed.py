"""Multi-seed aggregation tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import make_scheme
from repro.experiments.scenario import fast_scenario
from repro.metrics.history import TrainingHistory
from repro.metrics.multiseed import aggregate_metric, mean_curve, run_multiseed


class TestAggregateMetric:
    def test_mean_std(self):
        summary = aggregate_metric("m", [1.0, 2.0, 3.0])
        assert summary.mean == pytest.approx(2.0)
        assert summary.std == pytest.approx(1.0)
        assert summary.ci_low < 2.0 < summary.ci_high
        assert summary.num_seeds == 3

    def test_single_value_collapses_ci(self):
        summary = aggregate_metric("m", [5.0])
        assert summary.ci_low == summary.ci_high == 5.0

    def test_nan_filtered(self):
        summary = aggregate_metric("m", [1.0, float("nan"), 3.0])
        assert summary.num_seeds == 2

    def test_all_nan_raises(self):
        with pytest.raises(ValueError):
            aggregate_metric("m", [float("nan")])

    def test_str_renders(self):
        assert "95% CI" in str(aggregate_metric("m", [1.0, 2.0]))


class TestRunMultiseed:
    @staticmethod
    def _fake_experiment(seed: int) -> TrainingHistory:
        h = TrainingHistory(scheme="fake")
        rng = np.random.default_rng(seed)
        acc = 0.0
        for round_index in range(1, 5):
            acc = min(1.0, acc + 0.2 + 0.02 * rng.random())
            h.add(round_index, float(round_index), 1.0 - acc, acc)
        return h

    def test_summaries_present(self):
        out = run_multiseed(self._fake_experiment, seeds=[0, 1, 2], target_accuracy=0.5)
        assert set(out) >= {
            "final_accuracy",
            "best_accuracy",
            "total_latency_s",
            "rounds_to_target",
            "latency_to_target",
        }
        assert out["final_accuracy"].num_seeds == 3

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_multiseed(self._fake_experiment, seeds=[])

    def test_real_scheme_two_seeds(self):
        def experiment(seed: int) -> TrainingHistory:
            built = fast_scenario(with_wireless=False, seed=seed).build()
            return make_scheme("GSFL", built).run(2)

        out = run_multiseed(experiment, seeds=[0, 1])
        assert 0.0 <= out["final_accuracy"].mean <= 1.0

    def test_values_follow_the_seed_list(self):
        """One independent run per seed, reported in the order given."""

        def experiment(seed: int) -> TrainingHistory:
            built = fast_scenario(with_wireless=False, seed=seed).build()
            return make_scheme("GSFL", built).run(1)

        forward = run_multiseed(experiment, seeds=[0, 1])["final_accuracy"].values
        backward = run_multiseed(experiment, seeds=[1, 0])["final_accuracy"].values
        assert list(forward) == list(reversed(backward))
        assert list(forward) == [experiment(0).final_accuracy, experiment(1).final_accuracy]


class TestMeanCurve:
    def test_pointwise_stats(self):
        hs = []
        for offset in (0.0, 0.2):
            h = TrainingHistory(scheme="x")
            for r in (1, 2):
                h.add(r, float(r), 0.0, 0.4 + offset)
            hs.append(h)
        rounds, mean, std = mean_curve(hs)
        np.testing.assert_array_equal(rounds, [1, 2])
        np.testing.assert_allclose(mean, [0.5, 0.5])
        np.testing.assert_allclose(std, [0.1, 0.1])

    def test_mismatched_schedules_rejected(self):
        a = TrainingHistory("a")
        a.add(1, 1.0, 0.0, 0.5)
        b = TrainingHistory("b")
        b.add(2, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            mean_curve([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_curve([])
