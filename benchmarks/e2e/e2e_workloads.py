"""The four end-to-end workloads (names are fixed; later issues cite them).

Each body is what a user would run — two through ``repro.cli.main``, two
through the Python API — sized so one child's timed section is 2–4 s on
the 2-core box, which keeps a driver run of five children inside its cap.
``smoke`` swaps in ``fast``-sized variants of 1 round (churn: 2, so a link
abort happens) for the self-test.

``repro`` is imported inside the bodies: the parent harness imports this
module for the names only.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable

__all__ = ["WORKLOADS", "TRACE_FILE"]

#: JSONL written by ``churn-async-trace`` inside the child's work dir
TRACE_FILE = "trace.jsonl"


def _cli(argv: list[str]) -> None:
    from repro.cli import main

    code = main(argv)
    if code != 0:
        raise RuntimeError(f"repro.cli.main({argv}) returned {code}")


def _paper_gsfl(seed: int, work_dir: Path, smoke: bool) -> None:
    _cli(["run", "--scale", "fast" if smoke else "paper", "--scheme", "GSFL",
          "--rounds", "1", "--seed", str(seed)])


def _paper_fig2a(seed: int, work_dir: Path, smoke: bool) -> None:
    """What ``repro.cli fig2a --scale paper --rounds 1`` does, with 2 local
    steps per client instead of 5: one round is the CLI's floor (7.5 s) and
    five children of it would take a third of the driver's whole budget."""
    from repro.experiments.figures import run_fig2a
    from repro.experiments.scenario import fast_scenario, paper_scenario

    scenario = (fast_scenario if smoke else paper_scenario)(with_wireless=True, seed=seed)
    scenario.wireless = None  # accuracy axis only, as the CLI does
    scenario.scheme = replace(scenario.scheme, local_steps=2)
    print(run_fig2a(scenario, num_rounds=1, verbose=True).table)


def _fleet_contended(seed: int, work_dir: Path, smoke: bool) -> None:
    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    clients, groups, rounds = (24, 4, 1) if smoke else (240, 24, 6)
    scenario = fast_scenario(num_clients=clients, num_groups=groups, seed=seed)
    scenario.model_name = "mlp"
    scenario.dataset = replace(
        scenario.dataset, image_size=8, train_per_class=48, test_per_class=2
    )
    scenario.scheme = replace(
        scenario.scheme, medium="contended", batch_size=4, local_steps=1,
        eval_every=10**6,
    )
    make_scheme("GSFL", scenario.build()).run(rounds)


def _churn_async_trace(seed: int, work_dir: Path, smoke: bool) -> None:
    _cli(["run", "--scenario", "churn", "--scheme", "GSFL",
          "--rounds", "2" if smoke else "30", "--aggregation", "bounded:2",
          "--transport", "int8", "--trace-out", str(work_dir / TRACE_FILE),
          "--seed", str(seed)])


#: name -> body(seed, work_dir, smoke); why each exists is in BENCHMARK.json
WORKLOADS: dict[str, Callable[[int, Path, bool], None]] = {
    "paper-gsfl": _paper_gsfl,
    "paper-fig2a": _paper_fig2a,
    "fleet-contended": _fleet_contended,
    "churn-async-trace": _churn_async_trace,
}
