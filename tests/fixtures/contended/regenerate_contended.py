"""Regenerate the contended-medium latency fixture.

Run from the repository root **only when a change is *supposed* to alter
contended-medium answers** (and say so in the PR)::

    PYTHONPATH=src python tests/fixtures/contended/regenerate_contended.py

``latencies.json`` pins, as hex floats, the per-round ``latency_s`` of
GSFL / SplitFed / FL under every allocator on the contended medium
(`fast_scenario`, heterogeneity 1.0), plus two runs with
``mid-activity`` churn whose abort/retry/event counts are pinned too.
It was generated at the commit *before* the dense link engine and the
Shannon-rate evaluation were rewritten, so
``tests/schemes/test_contended_golden.py`` holds the rewrite to the old
engine's answers bit for bit.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import numpy as np

from repro import nn
from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import ExperimentScenario, fast_scenario

SCHEMES = ("GSFL", "SplitFed", "FL")
ALLOCATORS = ("equal", "proportional_rate", "inverse_rate")
ROUNDS = 2
#: ``mid-activity`` churn runs: windows far shorter than the ~0.4 s
#: rounds, so compute *and* in-flight transfers are cut (GSFL: 5 aborts,
#: 2 of them on the link; SplitFed: 22 aborts, 6 on the link)
CHURN_RUNS = {
    "GSFL/proportional_rate/churn": DynamicsConfig(
        churn_uptime_s=0.1, churn_downtime_s=0.05,
        failure_model="mid-activity", max_retries=2, seed=0,
    ),
    "SplitFed/proportional_rate/churn": DynamicsConfig(
        churn_uptime_s=0.05, churn_downtime_s=0.02,
        failure_model="mid-activity", max_retries=4, seed=0,
    ),
}

FIXTURE = pathlib.Path(__file__).resolve().parent / "latencies.json"


def contended_scenario(
    allocator: str, churn: DynamicsConfig | None = None
) -> ExperimentScenario:
    """The pinned configuration (must match the test module)."""
    scenario = fast_scenario(with_wireless=True, seed=0)
    scenario.wireless = replace(
        scenario.wireless, heterogeneity=1.0, allocator=allocator
    )
    scenario.scheme = replace(scenario.scheme, medium="contended")
    scenario.dynamics = replace(churn) if churn is not None else None
    return scenario


def run_record(key: str) -> dict[str, object]:
    """One ``scheme/allocator[/churn]`` run as stored in the fixture."""
    name, allocator = key.split("/")[:2]
    churn = CHURN_RUNS.get(key)
    scheme = make_scheme(name, contended_scenario(allocator, churn).build())
    history = scheme.run(ROUNDS)
    record: dict[str, object] = {
        "latency_s": [float(p.latency_s).hex() for p in history.points]
    }
    if churn is not None:
        record["aborts"] = len(scheme.recorder.aborts)
        record["retries"] = len(scheme.recorder.retries)
        record["events_fired"] = scheme.runtime.env.events_fired
    return record


#: every pinned run, ``scheme/allocator[/churn]``
KEYS = [f"{name}/{allocator}" for name in SCHEMES for allocator in ALLOCATORS] + list(
    CHURN_RUNS
)


def main() -> int:
    previous = nn.set_default_dtype(np.float64)  # what tests/conftest.py pins
    try:
        records = {key: run_record(key) for key in KEYS}
    finally:
        nn.set_default_dtype(previous)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    for key, record in records.items():
        print(key, record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
