"""Regenerate the golden training-history fixtures.

Run from the repository root **only when a change is *supposed* to alter
training histories** (and say so in the PR)::

    PYTHONPATH=src python tests/fixtures/histories/regenerate.py

One ``.npz`` per scheme and precision, produced by the canonical parity
configuration (`fast_scenario` with wireless, serial executor, static
medium, the round count pinned in ``GOLDEN_ROUNDS``).  Float64 (``<scheme>.npz``) is the seed commit's
precision *and* what the test suite pins session-wide (see
``tests/conftest.py``), so fixtures and test runs agree bit-for-bit.
Float32 (``<scheme>-float32.npz``) is the precision the CLI and the
``churn-async-trace`` benchmark run on this BatchNorm-free model; those
rows were generated before backward learned to release the graph as it
walks it, and hold later ``repro.nn`` changes to the same bits.  The FL
float32 row was regenerated when FL's sync round moved from one GEMV
over an ``(N, K)`` matrix to a running FedAvg sum (a reassociation of the
same sum: round-2 and round-3 losses moved by at most 2.98e-8).
``tests/schemes/test_golden_histories.py`` asserts every scheme — and the
barrier-free engine in its synchronous limit — still reproduces them
exactly.

``VARIANTS`` adds float64 rows (``<variant>.npz``) off the canonical
configuration: the ``int8`` wire codec (SL's lossy relay coding,
SplitFed's and GSFL's coded model hops, PSL's coded smashed data,
gradients and model hops, FL's coded broadcast and per-client uploads),
GSFL under the ``topk:0.25`` sparsifier, ``int8`` under ``bounded:2``
barrier-free aggregation, and participation + stragglers + mid-activity
churn on the static medium (the only configuration that moves
SplitFed's and PSL's per-participant bandwidth share).  Each variant file
also pins the run's abort and retry counts.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace

import numpy as np

from repro import nn
from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.runner import SCHEME_REGISTRY, make_scheme
from repro.experiments.scenario import fast_scenario

#: rounds per golden run (eval_every=1 in fast_scenario → one point each)
GOLDEN_ROUNDS = 3
#: the pinned precisions, parity precision first
DTYPES = ("float64", "float32")

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent


def fixture_path(name: str, dtype: str = "float64") -> pathlib.Path:
    """Where the ``name`` golden at ``dtype`` lives."""
    suffix = "" if dtype == "float64" else f"-{dtype}"
    return FIXTURE_DIR / f"{name}{suffix}.npz"


def golden_scenario():
    """The pinned parity configuration (must match the test module)."""
    return fast_scenario(with_wireless=True, seed=0)


#: churn, participation and stragglers with mid-activity preemption
VARIANT_DYNAMICS = DynamicsConfig(
    participation=0.5,
    straggler_rate=0.3,
    churn_uptime_s=0.5,
    churn_downtime_s=0.1,
    failure_model="mid-activity",
    max_retries=2,
    seed=0,
)

#: float64 variant rows: name -> (scheme, SchemeConfig overrides, dynamics)
VARIANTS: dict[str, tuple[str, dict[str, str], DynamicsConfig | None]] = {
    "SL+int8": ("SL", {"transport": "int8"}, None),
    "SplitFed+int8": ("SplitFed", {"transport": "int8"}, None),
    "GSFL+int8": ("GSFL", {"transport": "int8"}, None),
    "SplitFed+int8+bounded2": (
        "SplitFed", {"transport": "int8", "aggregation": "bounded:2"}, None
    ),
    "GSFL+int8+bounded2": (
        "GSFL", {"transport": "int8", "aggregation": "bounded:2"}, None
    ),
    "SL+dynamics": ("SL", {}, VARIANT_DYNAMICS),
    "SplitFed+dynamics": ("SplitFed", {}, VARIANT_DYNAMICS),
    "GSFL+dynamics": ("GSFL", {}, VARIANT_DYNAMICS),
    "PSL+int8": ("PSL", {"transport": "int8"}, None),
    "PSL+dynamics": ("PSL", {}, VARIANT_DYNAMICS),
    "FL+int8": ("FL", {"transport": "int8"}, None),
    "GSFL+topk:0.25": ("GSFL", {"transport": "topk:0.25"}, None),
}


def run_variant(variant: str):
    """Build and run one variant (float64 when the caller pins it)."""
    name, overrides, dynamics = VARIANTS[variant]
    scenario = golden_scenario()
    scenario.scheme = replace(scenario.scheme, **overrides)
    scenario.dynamics = dynamics
    scheme = make_scheme(name, scenario.build())
    return scheme, scheme.run(GOLDEN_ROUNDS)


def history_arrays(history) -> dict[str, np.ndarray]:
    """A history as the four arrays stored in the fixture."""
    return {
        "rounds": np.asarray([p.round_index for p in history.points], dtype=np.int64),
        "latencies": np.asarray([p.latency_s for p in history.points], dtype=np.float64),
        "losses": np.asarray([p.train_loss for p in history.points], dtype=np.float64),
        "accuracies": np.asarray(
            [p.test_accuracy for p in history.points], dtype=np.float64
        ),
    }


def variant_arrays(scheme, history) -> dict[str, np.ndarray]:
    """A variant run as its history arrays plus its abort/retry counts."""
    return {
        **history_arrays(history),
        "aborts": np.asarray(len(scheme.recorder.aborts), dtype=np.int64),
        "retries": np.asarray(len(scheme.recorder.retries), dtype=np.int64),
    }


def main() -> int:
    for dtype in DTYPES:
        with nn.default_dtype(np.dtype(dtype)):
            for name in sorted(SCHEME_REGISTRY):
                history = make_scheme(name, golden_scenario().build()).run(GOLDEN_ROUNDS)
                path = fixture_path(name, dtype)
                np.savez(path, **history_arrays(history))
                print(f"wrote {path}: final acc {history.final_accuracy:.3f}, "
                      f"latency {history.total_latency_s:.3f}s")
    with nn.default_dtype(np.dtype("float64")):
        for variant in VARIANTS:
            scheme, history = run_variant(variant)
            path = fixture_path(variant)
            arrays = variant_arrays(scheme, history)
            np.savez(path, **arrays)
            print(f"wrote {path}: final acc {history.final_accuracy:.3f}, "
                  f"latency {history.total_latency_s:.3f}s, "
                  f"{int(arrays['aborts'])} aborts, {int(arrays['retries'])} retries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
