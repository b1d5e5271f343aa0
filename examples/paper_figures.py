#!/usr/bin/env python3
"""Regenerate the paper's evaluation figures (Fig 2a and Fig 2b).

Fig 2(a): accuracy vs training rounds for CL / SL / GSFL / FL.
Fig 2(b): accuracy vs cumulative simulated latency for GSFL vs SL.

Both figures are read from one priced training of the four schemes.

By default runs a scaled-down configuration (~3 minutes).  Set
``REPRO_FULL=1`` for the full paper-scale run (30 clients / 6 groups /
43 classes, ~15 minutes).

Usage::

    python examples/paper_figures.py
    REPRO_FULL=1 python examples/paper_figures.py
"""

from __future__ import annotations

import os

from repro.experiments import paper_scenario, run_fig2a, run_fig2b
from repro.metrics.report import convergence_speedup, latency_reduction


def main() -> None:
    full = os.environ.get("REPRO_FULL", "0") == "1"
    if full:
        rounds = 40
        scenario_kwargs = {}
    else:
        rounds = 16
        scenario_kwargs = {"train_per_class": 10}

    # ------------------------------------------------------------------
    # Fig 2(a): accuracy vs rounds
    # ------------------------------------------------------------------
    print("== Fig 2(a): accuracy vs training rounds ==")
    scenario = paper_scenario(with_wireless=True, **scenario_kwargs)
    fig2a = run_fig2a(scenario, num_rounds=rounds, target_accuracy=0.6, verbose=True)
    print()
    print(fig2a.table)
    print()
    for target in (0.4, 0.5, 0.6):
        s = convergence_speedup(
            fig2a.histories["GSFL"], fig2a.histories["FL"], target
        )
        print(f"GSFL-over-FL convergence speedup @ {target:.0%}: "
              f"{'unreached' if s is None else f'{s:.1f}x'}")
    print("(paper claims 'nearly 500% improvement' i.e. ~5x)")
    print()

    # ------------------------------------------------------------------
    # Fig 2(b): accuracy vs latency (GSFL vs SL), from the same run
    # ------------------------------------------------------------------
    print("== Fig 2(b): accuracy vs training latency ==")
    fig2b = run_fig2b(fig2a, target_accuracy=0.6)
    print()
    print(fig2b.table)
    print()
    for target in (0.5, 0.6, 0.7, 0.8):
        r = latency_reduction(fig2b.histories["GSFL"], fig2b.histories["SL"], target)
        print(f"GSFL delay reduction vs SL @ {target:.0%}: "
              f"{'unreached' if r is None else f'{r:+.1%}'}")
    print("(paper claims 'about 31.45%')")


if __name__ == "__main__":
    main()
