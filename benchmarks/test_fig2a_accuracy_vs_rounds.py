"""Fig 2(a) — accuracy vs training rounds for CL / SL / GSFL / FL.

Paper claims reproduced here:

* CL, SL and GSFL converge to comparable accuracy; FL lags far behind
  at equal round counts;
* GSFL converges several times faster than FL in rounds-to-target
  (paper: "nearly 500% improvement in convergence speed").

The benchmark prints the same accuracy-vs-round series the paper plots,
from the priced run it shares with Fig 2(b) (``priced_figures``).
"""

from __future__ import annotations

from benchmarks.conftest import priced_figures, run_once
from repro.metrics.report import convergence_speedup


def test_fig2a_accuracy_vs_rounds(benchmark, scale):
    if scale == "paper":
        rounds, tpc, target = 30, 20, 0.6
    else:
        rounds, tpc, target = 26, 16, 0.5

    result = run_once(benchmark, lambda: priced_figures(rounds, tpc))
    h = result.histories

    print()
    print("Fig 2(a): accuracy (%) vs training rounds")
    print(result.table)

    # --- paper-shape assertions ---------------------------------------
    # 1. CL / SL / GSFL all converge well above FL at equal rounds.
    assert h["CL"].final_accuracy > h["FL"].final_accuracy + 0.05
    assert h["SL"].final_accuracy > h["FL"].final_accuracy + 0.05
    assert h["GSFL"].final_accuracy > h["FL"].final_accuracy + 0.05
    # 2. GSFL accuracy is comparable to SL (within a modest gap).
    assert h["GSFL"].final_accuracy >= h["SL"].final_accuracy - 0.12
    # 3. GSFL reaches the target several times sooner than FL.
    speedup = convergence_speedup(h["GSFL"], h["FL"], target)
    assert speedup is not None and speedup >= 2.0

    benchmark.extra_info["gsfl_over_fl_speedup"] = speedup
    benchmark.extra_info["final_accuracy"] = {
        name: round(hist.final_accuracy, 4) for name, hist in h.items()
    }
    print(f"\nGSFL-over-FL convergence speedup @ {target:.0%}: {speedup:.1f}x "
          "(paper: ~5x)")
