"""One repeat of one workload in a fresh interpreter (spawned by e2e_harness).

Untraced, the only hook is a pass-through wrapper on ``Scheme.run`` that
stamps its first entry (the ``setup_s`` / ``run_wall_s`` boundary) and
keeps the scheme instances; simulated results and counts are read from
them after the body returns.  ``--traced`` additionally installs the
span recorders of :mod:`e2e_tracer`.  The result goes to ``--out`` as
JSON; the exit code is non-zero when an output check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Any

from e2e_tracer import Tracer
from e2e_workloads import TRACE_FILE, WORKLOADS

class RunStamp:
    """Pass-through hook on ``Scheme.run``: first-entry time + instances."""

    def __init__(self) -> None:
        from repro.schemes.base import Scheme

        self.first_entry: float | None = None
        self.runs: list[tuple[Any, int]] = []
        self._cls = Scheme
        self._original = Scheme.__dict__["run"]
        original, stamp = self._original, self

        def run(scheme: Any, num_rounds: int) -> Any:
            if stamp.first_entry is None:
                stamp.first_entry = time.monotonic()
            stamp.runs.append((scheme, num_rounds))
            return original(scheme, num_rounds)

        Scheme.run = run  # type: ignore[method-assign]

    def uninstall(self) -> None:
        self._cls.run = self._original  # type: ignore[method-assign]


def _history_digest(runs: list[tuple[Any, int]]) -> str:
    rows = [row for scheme, _ in runs for row in scheme.history.to_rows()]
    # repr() keeps every float digit (and spells nan), json.dumps would not
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _check_rounds(runs: list[tuple[Any, int]], errors: list[str]) -> tuple[int, int]:
    """(attempted, failed) scheme-rounds: all present, all losses finite."""
    attempted = failed = 0
    for scheme, requested in runs:
        attempted += requested
        points = scheme.history.points
        missing = requested - len(scheme.round_timings)
        if not points or points[-1].round_index != requested:
            missing = max(missing, 1)
        bad = sum(1 for p in points if not math.isfinite(p.train_loss))
        if missing or bad:
            errors.append(
                f"{scheme.name}: {missing} of {requested} rounds missing, "
                f"{bad} non-finite losses"
            )
        failed += min(requested, missing + bad)
    return attempted, failed


def _check_trace(path: Path, errors: list[str]) -> tuple[int, int]:
    """Validate every exported row; returns (rows, bytes)."""
    from repro.devtools.trace_schema import validate_row

    kinds: dict[str, int] = {}
    rows = 0
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            try:
                validate_row(row)
            except ValueError as exc:
                errors.append(f"trace row {rows}: {exc}")
            kinds[row.get("type")] = kinds.get(row.get("type"), 0) + 1
            rows += 1
    for kind in ("meta", "energy_summary"):
        if kinds.get(kind, 0) != 1:
            errors.append(f"trace has {kinds.get(kind, 0)} {kind!r} rows, expected 1")
    return rows, path.stat().st_size


def _collect_result(runs: list[tuple[Any, int]]) -> dict[str, Any]:
    from repro.wireless.energy import EnergyModel

    energy = EnergyModel()
    envs = [scheme.runtime.env for scheme, _ in runs]
    return {
        "sim_latency_s": sum(s.runtime.now for s, _ in runs),
        "wire_mb": sum(s.recorder.total_bytes() for s, _ in runs) / 1e6,
        "fleet_energy_j": sum(
            energy.fleet_energy(s.recorder, s.runtime.now).total_j for s, _ in runs
        ),
        "final_accuracy": sum(s.history.final_accuracy for s, _ in runs) / len(runs),
        "client_rounds": sum(s.num_clients * len(s.round_timings) for s, _ in runs),
        "history_digest": _history_digest(runs),
        "counts": {
            "schemes.activities": sum(len(s.recorder) for s, _ in runs),
            "sim.events_fired": sum(env.events_fired for env in envs),
            "sim.peak_pending": max(env.peak_pending for env in envs),
            "sim.aborts": sum(len(s.recorder.aborts) for s, _ in runs),
            "sim.retries": sum(len(s.recorder.retries) for s, _ in runs),
        },
    }


def _train_gflop(runs: list[tuple[Any, int]], samples: int) -> float:
    """Forward+backward FLOPs of the samples trained (a count, from ModelProfile)."""
    from repro import nn
    from repro.nn.profile import BACKWARD_FLOP_FACTOR

    scheme = runs[0][0]  # every scheme of a workload trains the same architecture
    profile = scheme.profile
    if profile is None:  # unpriced run (fig2a): profile it here, after the timing
        profile = nn.profile_model(scheme.model, scheme.test_dataset[0][0].shape)
    per_sample = profile.total_forward_flops * (1.0 + BACKWARD_FLOP_FACTOR)
    return per_sample * samples / 1e9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() just before the spawn")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    import_start = time.monotonic()
    import repro.cli  # noqa: F401  (every workload pays the CLI's import closure)

    import_s = time.monotonic() - import_start
    imported_modules = len(sys.modules)

    stamp = RunStamp()
    tracer = Tracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    try:
        WORKLOADS[args.workload](args.seed, args.work_dir, args.smoke)
        body_end = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
        stamp.uninstall()

    if stamp.first_entry is None:
        raise RuntimeError("workload body never entered Scheme.run")
    errors: list[str] = []
    attempted, failed = _check_rounds(stamp.runs, errors)
    result = _collect_result(stamp.runs)
    trace_path = args.work_dir / TRACE_FILE
    if trace_path.exists():
        attempted += 1
        before = len(errors)
        rows, nbytes = _check_trace(trace_path, errors)
        failed += len(errors) > before
    else:
        rows = nbytes = 0
    result["counts"]["cli.trace_rows"] = rows
    result["counts"]["cli.trace_mb"] = nbytes / 1e6

    import numpy

    run_wall_s = body_end - stamp.first_entry
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out: dict[str, Any] = {
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
        "host": {
            "setup_s": stamp.first_entry - args.spawned_at,
            "run_wall_s": run_wall_s,
            "import_s": import_s,
            "imported_modules": imported_modules,
        },
        "result": result,
        "ops": {"attempted": attempted, "failed": failed, "errors": errors},
    }
    if tracer is not None:
        in_window = tracer.ledger((stamp.first_entry, body_end))
        out["layers"] = tracer.ledger()
        out["layer_counts"] = dict(tracer.counts)
        out["run_share"] = {k: r["self_s"] / run_wall_s for k, r in in_window.items()}
        out["coverage"] = sum(out["run_share"].values())
        out["spans"] = len(tracer.spans)
        out["train_gflop"] = _train_gflop(
            stamp.runs, tracer.counts.get("data.sample_batch", 0)
        )
        if args.spans_out is not None:
            with open(args.spans_out, "w") as fh:
                for name, start, end, parent in tracer.spans:
                    fh.write(json.dumps([name, start, end, parent]) + "\n")
    # Harness bookkeeping after the body is not something a user waits for;
    # the parent subtracts it from the spawn-to-exit wall time.
    out["host"]["collect_s"] = time.monotonic() - body_end
    args.out.write_text(json.dumps(out))
    for message in errors:
        print(f"e2e check failed: {message}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
