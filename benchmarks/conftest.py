"""Benchmark-suite configuration.

Every benchmark regenerates one table/figure/ablation of the paper's
evaluation and *asserts the paper's qualitative shape* (who wins,
by roughly what factor).  Experiment benchmarks execute exactly once
(``pedantic(rounds=1, iterations=1)``) because each run is a full
training experiment; micro-benchmarks use normal timing loops.

``REPRO_BENCH_SCALE`` (default ``small``) selects the experiment scale:

* ``small`` — minutes; scaled-down data, same scheme structure;
* ``paper`` — the full §III configuration.
"""

from __future__ import annotations

import functools
import os

import pytest

from repro.experiments import Fig2aResult, paper_scenario, run_fig2a


def bench_scale() -> str:
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in ("small", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be small|paper, got {scale!r}")
    return scale


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


def run_once(benchmark, fn):
    """Run a whole-experiment benchmark exactly once under timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@functools.cache
def priced_figures(rounds: int, train_per_class: int) -> Fig2aResult:
    """One priced CL / SL / GSFL / FL run of the paper preset, trained once
    per ``(rounds, train_per_class)`` and shared by the Fig 2(a) and
    Fig 2(b) benchmarks: pricing leaves every training history unchanged,
    and each scheme starts its own fading stream, so Fig 2(b)'s SL and
    GSFL series are those of lone runs."""
    scenario = paper_scenario(with_wireless=True, train_per_class=train_per_class)
    return run_fig2a(scenario, num_rounds=rounds)
