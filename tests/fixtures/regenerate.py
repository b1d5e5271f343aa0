"""The pinned fixture runs, and the one entry point that regenerates them.

Run from the repository root **only when a change is *supposed* to alter
what a fixture pins** (and say so in the change)::

    PYTHONPATH=src python tests/fixtures/regenerate.py {histories,contended,deepthin}

The golden tests import the same run helpers from here, so a fixture and
its test always run one configuration.

``histories`` — ``histories/<scheme>.npz`` per scheme and precision,
produced by the canonical parity configuration (`fast_scenario` with
wireless, serial executor, static medium, the round count pinned in
``GOLDEN_ROUNDS``).  Float64 (``<scheme>.npz``) is the seed commit's
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
exactly.  ``VARIANTS`` adds float64 rows (``<variant>.npz``) off the
canonical configuration: the ``int8`` wire codec (SL's lossy relay coding,
SplitFed's and GSFL's coded model hops, PSL's coded smashed data,
gradients and model hops, FL's coded broadcast and per-client uploads),
GSFL under the ``topk:0.25`` sparsifier, ``int8`` under ``bounded:2``
barrier-free aggregation, and participation + stragglers + mid-activity
churn on the static medium (the only configuration that moves
SplitFed's and PSL's per-participant bandwidth share).  Each variant file
also pins the run's abort and retry counts.

``contended`` — ``contended/latencies.json`` pins, as hex floats, the
per-round ``latency_s`` of GSFL / SplitFed / FL under every allocator on
the contended medium (`fast_scenario`, heterogeneity 1.0), plus two runs
with ``mid-activity`` churn whose abort/retry/event counts are pinned
too.  It was generated at the commit *before* the dense link engine and
the Shannon-rate evaluation were rewritten, so
``tests/schemes/test_contended_golden.py`` holds the rewrite to the old
engine's answers bit for bit.

``deepthin`` — the ``histories`` goldens run ``micro_cnn``, no BatchNorm,
so they cannot see a change to the only model the paper uses.
``deepthin/histories.json`` pins, as hex floats, the per-round training
loss and test accuracy of GSFL and SL on a reduced ``paper_scenario``
(DeepThin, cut 8, batch 16; 6 clients in 2 groups, 4 training images per
class, 2 local steps, evaluation every round) in float64 *and* float32,
the precision the CLI and the benchmark run.  It was generated at the
commit that made BatchNorm one fused autograd node on C-contiguous
activations; ``tests/schemes/test_deepthin_golden.py`` holds later
``repro.nn`` changes to those answers bit for bit.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from dataclasses import replace

import numpy as np

from repro import nn
from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.runner import SCHEME_REGISTRY, make_scheme
from repro.experiments.scenario import ExperimentScenario, fast_scenario, paper_scenario

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent
#: the pinned precisions, parity precision first
DTYPES = ("float64", "float32")

# ----------------------------------------------------------------------
# histories
# ----------------------------------------------------------------------

#: rounds per golden run (eval_every=1 in fast_scenario → one point each)
GOLDEN_ROUNDS = 3
HISTORIES_DIR = FIXTURE_DIR / "histories"


def fixture_path(name: str, dtype: str = "float64") -> pathlib.Path:
    """Where the ``name`` golden at ``dtype`` lives."""
    suffix = "" if dtype == "float64" else f"-{dtype}"
    return HISTORIES_DIR / f"{name}{suffix}.npz"


def golden_scenario():
    """The pinned parity configuration."""
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


def load_golden(name: str, dtype: str = "float64") -> dict[str, np.ndarray]:
    path = fixture_path(name, dtype)
    assert path.exists(), (
        f"missing golden fixture {path}; run "
        f"PYTHONPATH=src python tests/fixtures/regenerate.py histories"
    )
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def assert_matches_golden(
    history, name: str, dtype: str = "float64", actual: dict | None = None
) -> None:
    golden = load_golden(name, dtype)
    if actual is None:
        actual = history_arrays(history)
    assert set(actual) == set(golden)
    for key in golden:
        np.testing.assert_array_equal(
            actual[key],
            golden[key],
            err_msg=(
                f"{name} ({dtype}): {key} diverged from the golden fixture — either a "
                f"parity regression or an intentional history change "
                f"(regenerate the fixtures and justify it in the PR)"
            ),
        )


def regenerate_histories() -> None:
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


# ----------------------------------------------------------------------
# contended
# ----------------------------------------------------------------------

CONTENDED_SCHEMES = ("GSFL", "SplitFed", "FL")
ALLOCATORS = ("equal", "proportional_rate", "inverse_rate")
CONTENDED_ROUNDS = 2
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
CONTENDED_FIXTURE = FIXTURE_DIR / "contended" / "latencies.json"


def contended_scenario(
    allocator: str, churn: DynamicsConfig | None = None
) -> ExperimentScenario:
    """The pinned contended-medium configuration."""
    scenario = fast_scenario(with_wireless=True, seed=0)
    scenario.wireless = replace(
        scenario.wireless, heterogeneity=1.0, allocator=allocator
    )
    scenario.scheme = replace(scenario.scheme, medium="contended")
    scenario.dynamics = replace(churn) if churn is not None else None
    return scenario


def contended_record(key: str) -> dict[str, object]:
    """One ``scheme/allocator[/churn]`` run as stored in the fixture."""
    name, allocator = key.split("/")[:2]
    churn = CHURN_RUNS.get(key)
    scheme = make_scheme(name, contended_scenario(allocator, churn).build())
    history = scheme.run(CONTENDED_ROUNDS)
    record: dict[str, object] = {
        "latency_s": [float(p.latency_s).hex() for p in history.points]
    }
    if churn is not None:
        record["aborts"] = len(scheme.recorder.aborts)
        record["retries"] = len(scheme.recorder.retries)
        record["events_fired"] = scheme.runtime.env.events_fired
    return record


#: every pinned run, ``scheme/allocator[/churn]``
CONTENDED_KEYS = [
    f"{name}/{allocator}" for name in CONTENDED_SCHEMES for allocator in ALLOCATORS
] + list(CHURN_RUNS)


def regenerate_contended() -> None:
    with nn.default_dtype(np.float64):  # what tests/conftest.py pins
        records = {key: contended_record(key) for key in CONTENDED_KEYS}
    CONTENDED_FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    for key, record in records.items():
        print(key, record)


# ----------------------------------------------------------------------
# deepthin
# ----------------------------------------------------------------------

DEEPTHIN_SCHEMES = ("GSFL", "SL")
DEEPTHIN_ROUNDS = 2
DEEPTHIN_FIXTURE = FIXTURE_DIR / "deepthin" / "histories.json"


def deepthin_scenario() -> ExperimentScenario:
    """The pinned DeepThin configuration."""
    scenario = paper_scenario(with_wireless=True, train_per_class=4, seed=0)
    return replace(
        scenario,
        num_clients=6,
        num_groups=2,
        scheme=replace(scenario.scheme, local_steps=2, eval_every=1),
    )


def deepthin_record(dtype: str, name: str) -> dict[str, list[str]]:
    """One ``dtype`` × scheme run as stored in the fixture."""
    with nn.default_dtype(np.dtype(dtype)):
        history = make_scheme(name, deepthin_scenario().build()).run(DEEPTHIN_ROUNDS)
    return {
        "train_loss": [float(p.train_loss).hex() for p in history.points],
        "test_accuracy": [float(p.test_accuracy).hex() for p in history.points],
    }


#: every pinned run
DEEPTHIN_KEYS = [(dtype, name) for dtype in DTYPES for name in DEEPTHIN_SCHEMES]


def regenerate_deepthin() -> None:
    records: dict[str, dict[str, object]] = {dtype: {} for dtype in DTYPES}
    for dtype, name in DEEPTHIN_KEYS:
        records[dtype][name] = deepthin_record(dtype, name)
        print(dtype, name, records[dtype][name])
    DEEPTHIN_FIXTURE.write_text(json.dumps(records, indent=1) + "\n")


FIXTURES = {
    "histories": regenerate_histories,
    "contended": regenerate_contended,
    "deepthin": regenerate_deepthin,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate pinned test fixtures.")
    parser.add_argument("fixtures", nargs="+", choices=sorted(FIXTURES))
    for name in parser.parse_args(argv).fixtures:
        FIXTURES[name]()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
