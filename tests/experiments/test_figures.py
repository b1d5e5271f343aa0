"""Figure-harness integration tests: paper-claim *shape* on the fast
scenario, both figures read from one priced run.  These are the repo's
headline correctness checks; the full-scale runs live in benchmarks/."""

from __future__ import annotations

import pytest

from repro.experiments.figures import run_fig2a, run_fig2b
from repro.experiments.scenario import fast_scenario


@pytest.fixture(scope="module")
def fig2a_result():
    scenario = fast_scenario(with_wireless=True, num_clients=8, num_groups=2)
    return run_fig2a(scenario, num_rounds=8, target_accuracy=0.4)


class TestFig2aShape:
    def test_all_schemes_present(self, fig2a_result):
        assert set(fig2a_result.histories) == {"CL", "SL", "GSFL", "FL"}

    def test_scheme_ordering_matches_paper(self, fig2a_result):
        """Fig 2(a): CL/SL lead, GSFL comparable, FL far behind."""
        h = fig2a_result.histories
        assert h["CL"].final_accuracy > h["FL"].final_accuracy
        assert h["SL"].final_accuracy > h["FL"].final_accuracy
        assert h["GSFL"].final_accuracy > h["FL"].final_accuracy

    def test_gsfl_accuracy_comparable_to_sl(self, fig2a_result):
        """Paper: "accuracy level comparable to that of the SL scheme"."""
        h = fig2a_result.histories
        assert h["GSFL"].final_accuracy >= h["SL"].final_accuracy - 0.15

    def test_gsfl_converges_faster_than_fl(self, fig2a_result):
        """The paper's "nearly 500% improvement in convergence speed" claim:
        at this small scale we assert the direction and a solid factor."""
        speedup = fig2a_result.gsfl_over_fl_speedup
        assert speedup is not None and speedup > 1.0

    def test_table_renders(self, fig2a_result):
        assert "GSFL" in fig2a_result.table


class TestFig2bShape:
    @pytest.fixture(scope="class")
    def result(self, fig2a_result):
        return run_fig2b(fig2a_result, target_accuracy=0.4)

    def test_histories_have_latency_axis(self, result):
        for h in result.histories.values():
            assert h.total_latency_s > 0

    def test_gsfl_round_latency_below_sl(self, result):
        """GSFL's parallel groups must yield cheaper rounds than serial SL."""
        sl = result.histories["SL"]
        gsfl = result.histories["GSFL"]
        sl_per_round = sl.total_latency_s / sl.points[-1].round_index
        gsfl_per_round = gsfl.total_latency_s / gsfl.points[-1].round_index
        assert gsfl_per_round < sl_per_round

    def test_requires_wireless(self):
        unpriced = run_fig2a(fast_scenario(with_wireless=False), num_rounds=1,
                             schemes=("SL", "GSFL"))
        with pytest.raises(ValueError, match="wireless"):
            run_fig2b(unpriced)

    def test_table_renders(self, result):
        assert "latency_s" in result.table
