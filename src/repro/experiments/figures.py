"""Regeneration harnesses for the paper's figures, both read from one
training of the same schemes.

* :func:`run_fig2a` — accuracy vs training rounds for CL / SL / GSFL / FL
  (paper Fig 2(a)); the headline check is the scheme ordering and the
  GSFL-over-FL convergence-speed factor (paper: "nearly 500%").
* :func:`run_fig2b` — accuracy vs cumulative latency for GSFL vs SL
  (paper Fig 2(b)), a view of a priced :func:`run_fig2a` result: each
  scheme starts its own fading stream, so its series is a lone run's.  The
  headline check is the relative delay reduction at a target accuracy
  (paper: "about 31.45%").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.runner import run_schemes
from repro.experiments.scenario import ExperimentScenario
from repro.metrics.history import TrainingHistory
from repro.metrics.report import (
    accuracy_vs_latency_table,
    accuracy_vs_rounds_table,
    convergence_speedup,
    latency_reduction,
)

__all__ = ["Fig2aResult", "Fig2bResult", "run_fig2a", "run_fig2b"]


@dataclass
class Fig2aResult:
    """Fig 2(a) reproduction output."""

    histories: dict[str, TrainingHistory]
    target_accuracy: float
    gsfl_over_fl_speedup: float | None
    table: str


@dataclass
class Fig2bResult:
    """Fig 2(b) reproduction output."""

    histories: dict[str, TrainingHistory]
    target_accuracy: float
    delay_reduction: float | None
    table: str


def run_fig2a(
    scenario: ExperimentScenario,
    num_rounds: int,
    target_accuracy: float = 0.6,
    schemes: tuple[str, ...] = ("CL", "SL", "GSFL", "FL"),
    verbose: bool = False,
) -> Fig2aResult:
    """Reproduce Fig 2(a): accuracy vs rounds across the four schemes.

    Runs without the wireless pricer when the scenario was declared with
    ``wireless=None``; otherwise every scheme is priced too, its training
    history unchanged, and the result feeds :func:`run_fig2b`.
    """
    built = scenario.build()
    histories = run_schemes(built, list(schemes), num_rounds, verbose=verbose)
    speedup = None
    if "GSFL" in histories and "FL" in histories:
        speedup = convergence_speedup(
            histories["GSFL"], histories["FL"], target_accuracy
        )
    return Fig2aResult(
        histories=histories,
        target_accuracy=target_accuracy,
        gsfl_over_fl_speedup=speedup,
        table=accuracy_vs_rounds_table(list(histories.values())),
    )


def run_fig2b(fig2a: Fig2aResult, target_accuracy: float = 0.6) -> Fig2bResult:
    """Reproduce Fig 2(b): accuracy vs latency, GSFL vs SL, from the SL
    and GSFL histories of a priced :func:`run_fig2a` result.

    The run must have had a wireless system (latency axis).
    """
    histories = {name: fig2a.histories[name] for name in ("SL", "GSFL")}
    if any(h.total_latency_s <= 0 for h in histories.values()):
        raise ValueError("Fig 2(b) needs a wireless system; the run was not priced")
    reduction = latency_reduction(histories["GSFL"], histories["SL"], target_accuracy)
    return Fig2bResult(
        histories=histories,
        target_accuracy=target_accuracy,
        delay_reduction=reduction,
        table=accuracy_vs_latency_table(list(histories.values())),
    )
