"""Regenerate the DeepThin training-history fixture.

Run from the repository root **only when a change is *supposed* to alter
the numerics of a BatchNorm model** (and bound what moved in the PR)::

    PYTHONPATH=src python tests/fixtures/deepthin/regenerate_deepthin.py

The six ``tests/fixtures/histories/*.npz`` goldens run ``fast_scenario`` —
``micro_cnn``, no BatchNorm — so they cannot see a change to the only model
the paper uses.  ``histories.json`` pins, as hex floats, the per-round
training loss and test accuracy of GSFL and SL on a reduced
``paper_scenario`` (DeepThin, cut 8, batch 16; 6 clients in 2 groups, 4
training images per class, 2 local steps, evaluation every round) in
float64 *and* float32, the precision the CLI and the benchmark run.

It was generated at the commit that made BatchNorm one fused autograd node
on C-contiguous activations; ``tests/schemes/test_deepthin_golden.py``
holds later ``repro.nn`` changes to those answers bit for bit.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import replace

import numpy as np

from repro import nn
from repro.experiments.runner import make_scheme
from repro.experiments.scenario import ExperimentScenario, paper_scenario

SCHEMES = ("GSFL", "SL")
DTYPES = ("float64", "float32")
ROUNDS = 2

FIXTURE = pathlib.Path(__file__).resolve().parent / "histories.json"


def deepthin_scenario() -> ExperimentScenario:
    """The pinned configuration (must match the test module)."""
    scenario = paper_scenario(with_wireless=True, train_per_class=4, seed=0)
    return replace(
        scenario,
        num_clients=6,
        num_groups=2,
        scheme=replace(scenario.scheme, local_steps=2, eval_every=1),
    )


def run_record(dtype: str, name: str) -> dict[str, list[str]]:
    """One ``dtype`` × scheme run as stored in the fixture."""
    with nn.default_dtype(np.dtype(dtype)):
        history = make_scheme(name, deepthin_scenario().build()).run(ROUNDS)
    return {
        "train_loss": [float(p.train_loss).hex() for p in history.points],
        "test_accuracy": [float(p.test_accuracy).hex() for p in history.points],
    }


#: every pinned run
KEYS = [(dtype, name) for dtype in DTYPES for name in SCHEMES]


def main() -> int:
    records: dict[str, dict[str, object]] = {dtype: {} for dtype in DTYPES}
    for dtype, name in KEYS:
        records[dtype][name] = run_record(dtype, name)
        print(dtype, name, records[dtype][name])
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
