"""History container and paper-claim report tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.history import TrainingHistory
from repro.metrics.report import (
    accuracy_vs_latency_table,
    accuracy_vs_rounds_table,
    convergence_speedup,
    latency_reduction,
)


def make_history(name, accs, lat_per_round=1.0):
    h = TrainingHistory(scheme=name)
    for i, acc in enumerate(accs, start=1):
        h.add(round_index=i, latency_s=i * lat_per_round, train_loss=1.0 / i, test_accuracy=acc)
    return h


class TestTrainingHistory:
    def test_series_accessors(self):
        h = make_history("x", [0.1, 0.5, 0.9])
        np.testing.assert_array_equal(h.rounds, [1, 2, 3])
        np.testing.assert_allclose(h.accuracies, [0.1, 0.5, 0.9])
        assert h.final_accuracy == 0.9
        assert h.best_accuracy == 0.9
        assert h.total_latency_s == 3.0
        assert len(h.points) == 3

    def test_best_can_precede_final(self):
        h = make_history("x", [0.9, 0.8])
        assert h.best_accuracy == 0.9
        assert h.final_accuracy == 0.8

    def test_monotonic_round_enforced(self):
        h = make_history("x", [0.1])
        with pytest.raises(ValueError):
            h.add(0, 2.0, 0.5, 0.2)

    def test_monotonic_latency_enforced(self):
        h = make_history("x", [0.1])
        with pytest.raises(ValueError):
            h.add(2, 0.5, 0.5, 0.2)

    def test_rounds_to_accuracy(self):
        h = make_history("x", [0.2, 0.5, 0.7, 0.9])
        assert h.rounds_to_accuracy(0.5) == 2
        assert h.rounds_to_accuracy(0.65) == 3
        assert h.rounds_to_accuracy(0.95) is None

    def test_latency_to_accuracy(self):
        h = make_history("x", [0.2, 0.8], lat_per_round=5.0)
        assert h.latency_to_accuracy(0.5) == pytest.approx(10.0)
        assert h.latency_to_accuracy(0.9) is None

    def test_empty_history_errors(self):
        h = TrainingHistory(scheme="x")
        with pytest.raises(ValueError):
            _ = h.final_accuracy
        assert h.total_latency_s == 0.0

    def test_to_rows_and_summary(self):
        h = make_history("GSFL", [0.5])
        rows = h.to_rows()
        assert rows[0]["scheme"] == "GSFL"
        assert "GSFL" in h.summary()
        assert "(empty)" in TrainingHistory("e").summary()


class TestReports:
    def test_convergence_speedup(self):
        fast = make_history("GSFL", [0.3, 0.6, 0.9])
        slow = make_history("FL", [0.1] * 9 + [0.6])
        assert convergence_speedup(fast, slow, 0.6) == pytest.approx(10 / 2)

    def test_speedup_none_when_unreached(self):
        fast = make_history("GSFL", [0.3])
        slow = make_history("FL", [0.1])
        assert convergence_speedup(fast, slow, 0.6) is None

    def test_latency_reduction_matches_paper_formula(self):
        # GSFL reaches target at 68.55s where SL needs 100s -> 31.45%
        gsfl = TrainingHistory("GSFL")
        gsfl.add(1, 68.55, 0.5, 0.8)
        sl = TrainingHistory("SL")
        sl.add(1, 100.0, 0.5, 0.8)
        assert latency_reduction(gsfl, sl, 0.8) == pytest.approx(0.3145)

    def test_latency_reduction_is_negative_when_slow_arrives_first(self):
        # The fast-scale figures at 30%: SL reaches it after one round
        # (0.33 s), GSFL after two (0.44 s).
        gsfl = make_history("GSFL", [0.27, 0.40], lat_per_round=0.22)
        sl = make_history("SL", [0.45], lat_per_round=0.33)
        assert latency_reduction(gsfl, sl, 0.3) == pytest.approx(-1 / 3)

    def test_latency_reduction_none_cases(self):
        a = make_history("a", [0.2])
        b = make_history("b", [0.9])
        assert latency_reduction(a, b, 0.5) is None

    def test_rounds_table_renders_all_schemes(self):
        histories = [make_history("SL", [0.5, 0.9]), make_history("GSFL", [0.4, 0.8])]
        table = accuracy_vs_rounds_table(histories)
        assert "SL" in table and "GSFL" in table
        assert "90.00" in table

    def test_rounds_table_handles_missing_rounds(self):
        a = make_history("a", [0.5])
        b = make_history("b", [0.4, 0.8])
        table = accuracy_vs_rounds_table([a, b])
        assert "-" in table

    def test_latency_table(self):
        table = accuracy_vs_latency_table([make_history("SL", [0.5], lat_per_round=3.0)])
        assert "3.00" in table and "50.00" in table
