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
walks it, and hold later ``repro.nn`` changes to the same bits.
``tests/schemes/test_golden_histories.py`` asserts every scheme — and the
barrier-free engine in its synchronous limit — still reproduces them
exactly.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro import nn
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


def main() -> int:
    for dtype in DTYPES:
        with nn.default_dtype(np.dtype(dtype)):
            for name in sorted(SCHEME_REGISTRY):
                history = make_scheme(name, golden_scenario().build()).run(GOLDEN_ROUNDS)
                path = fixture_path(name, dtype)
                np.savez(path, **history_arrays(history))
                print(f"wrote {path}: final acc {history.final_accuracy:.3f}, "
                      f"latency {history.total_latency_s:.3f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
