"""Reachability ledger: which ``src/repro`` definitions no command calls.

A ``sys.setprofile`` hook, installed before ``import repro``, records the
code object of every Python frame entered.  The ledger then drives
:data:`INVOCATIONS` (every ``repro.cli`` command, catalog world, scheme,
codec, medium, grouping, regroup policy, failure model, aggregation mode,
dtype and a replay), :data:`USAGE_ERRORS` and the four ``benchmarks/e2e``
workloads at smoke size, and prints every ``def`` under ``src/repro``
that never ran, per module, with its line count.  A definition nested in
an unreached one is counted with it, not again.

Each definition that stays unreached has a one-line reason in
:data:`ALLOWED`; with ``--check`` the ledger exits 1 when an unreached
definition has none, or when an entry no longer exists or is reached.

Usage::

    python3 benchmarks/reachability.py            # the ledger
    python3 benchmarks/reachability.py --check    # also gate on ALLOWED

Standard library only (``repro`` brings numpy itself).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Iterable, Iterator

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
E2E = REPO / "benchmarks" / "e2e"

#: argv lists for ``repro.cli.main``; ``{trace}`` is one JSONL path that
#: the run writing it precedes the replay reading it
FAST = ("--scale", "fast", "--rounds", "1")
INVOCATIONS: tuple[tuple[str, ...], ...] = (
    ("scenarios",),
    *(("scenarios", world) for world in (
        "cell-outage", "churn", "cross-traffic", "device-classes", "diurnal",
        "fast", "mobility", "paper")),
    ("info", "--scale", "fast"),
    ("info", "--scale", "paper"),
    ("cuts", "--scale", "fast"),
    ("figures", *FAST, "--target", "0.05"),
    *(("run", *FAST, "--scheme", scheme)
      for scheme in ("CL", "FL", "SL", "SplitFed", "PSL", "GSFL")),
    *(("run", "--scenario", world, "--rounds", "1") for world in (
        "cell-outage", "churn", "cross-traffic", "device-classes", "diurnal",
        "fast", "mobility")),
    ("run", "--scenario", "paper", "--rounds", "1", "--train-per-class", "2"),
    *(("run", *FAST, "--transport", codec) for codec in ("float32", "int8", "intk:4", "topk:0.25")),
    ("run", *FAST, "--scheme", "FL", "--transport", "int8"),
    *(("run", *FAST, "--scheme", scheme, "--medium", "contended")
      for scheme in ("FL", "SL", "SplitFed", "PSL", "GSFL")),
    *(("run", *FAST, "--grouping", grouping)
      for grouping in ("random", "compute_balanced", "channel_aware")),
    *(("run", "--scenario", "churn", "--rounds", "3", "--regroup", policy, "--regroup-every", "1")
      for policy in ("availability_aware", "abort_history")),
    *(("run", *FAST, "--churn-uptime", "0.5", "--churn-downtime", "0.2",
       "--failure-model", model, "--max-retries", "1")
      for model in ("none", "round", "mid-activity")),
    *(("run", *FAST, "--scheme", scheme, "--aggregation", mode)
      for scheme in ("FL", "SplitFed", "GSFL") for mode in ("async", "bounded:1")),
    ("run", *FAST, "--dtype", "float64"),
    ("run", *FAST, "--heterogeneity", "0.8", "--participation", "0.5",
     "--straggler-rate", "0.5", "--straggler-slowdown", "3"),
    ("run", *FAST, "--failure-rate", "0.3", "--cut-layer", "2", "--groups", "3"),
    ("run", "--scenario", "churn", "--rounds", "2", "--trace-out", "{trace}"),
    ("run", "--scenario", "replay:{trace}", "--rounds", "2"),
)
#: argv lists a config check refuses (exit 2, nothing built)
USAGE_ERRORS: tuple[tuple[str, ...], ...] = (
    ("run", *FAST, "--cut-layer", "99"),
    ("scenarios", "nowhere"),
)

_BOUND = "bound by name in benchmarks/e2e: the tracer patches it"
_ABSTRACT = "an abstract hook: every concrete subclass overrides it"
_TENSOR = "the Tensor operator algebra, kept as a test instrument"
_ALLOCATOR = ("a share policy of the allocator-backed medium that fixtures/contended "
              "and the dense-link oracle replay")
_DATASET = ("the Dataset protocol for a dataset no build makes: CL pools those through "
            "arrays() (tier-1)")
_COUNTER = "a DES occupancy count: tier-1's leak checks read it"
_STORAGE = ("the paper's §I storage argument: examples/quickstart.py prints it and "
            "benchmarks/test_storage_footprint.py asserts it")
_PSL_STORAGE = ("PSL's side of the §I storage argument: benchmarks/test_scheme_ladder.py "
                "and tier-1 read it")
_SUMMARY = ("a per-phase trace summary: examples/quickstart.py and the latency-breakdown "
            "benchmark print it; ROADMAP item 5's `trace summary` would own it")

#: ``"module:qualname"`` (or a bare module for all of it) -> why it stays unreached
ALLOWED: dict[str, str] = {
    "repro.devtools.lint": "the determinism lints: CI's static-analysis job runs them",
    "repro.devtools.rules": "the determinism lints: CI's static-analysis job runs them",
    "repro.devtools.trace_schema:_shown":
        "live code that only tier-1 reaches: the message for a replayed value of the "
        "wrong type",
    "repro.core.regroup:RegroupPolicy.regroup": _ABSTRACT,
    "repro.data.dataset:Dataset.__len__": _ABSTRACT,
    "repro.data.dataset:Dataset.__getitem__": _ABSTRACT,
    "repro.data.dataset:Dataset.take": _DATASET,
    "repro.data.dataset:Dataset.arrays": _DATASET,
    "repro.data.dataset:ArrayDataset.arrays": _DATASET,
    "repro.data.dataset:Subset.__getitem__": _DATASET,
    "repro.data.partition:partition_dirichlet": _BOUND,
    "repro.metrics.evaluate:evaluate_split": _BOUND,
    "repro.nn.split:SplitModel.full_forward": "evaluate_split's forward (bound in benchmarks/e2e)",
    "repro.nn.split:ServerHalf.forward": "evaluate_split's forward (bound in benchmarks/e2e)",
    "repro.metrics.multiseed": "multi-seed summaries: ROADMAP item 1's claims report calls them",
    "repro.models.registry:available_models":
        "live code that only tier-1 reaches: the unknown-model error message",
    "repro.nn.dtype:default_dtype.__init__": "the scoped dtype tests/fixtures/regenerate.py "
        "builds every golden under",
    "repro.nn.dtype:default_dtype.__enter__": "the scoped dtype tests/fixtures/regenerate.py "
        "builds every golden under",
    "repro.nn.dtype:default_dtype.__exit__": "the scoped dtype tests/fixtures/regenerate.py "
        "builds every golden under",
    "repro.nn.layers:Layer.output_shape": _ABSTRACT,
    "repro.nn.layers:Layer.flops": _ABSTRACT,
    "repro.nn.module:Module.forward": _ABSTRACT,
    "repro.nn.profile:ModelProfile.server_params": _STORAGE,
    "repro.nn.profile:ModelProfile.server_model_bytes": _STORAGE,
    "repro.nn.norm:_scale_shift._bw":
        "live code that only tier-1 reaches: backward through an eval-mode BatchNorm",
    "repro.nn.optim:Optimizer.step": _ABSTRACT,
    "repro.nn.tensor:Tensor._item_err":
        "live code that only tier-1 reaches: item() of a tensor with more than one entry",
    "repro.nn.tensor:Tensor.T": _TENSOR,
    "repro.nn.tensor:Tensor.clone": _TENSOR,
    "repro.nn.tensor:Tensor.__add__": _TENSOR,
    "repro.nn.tensor:Tensor.__mul__._bw": _TENSOR,
    "repro.nn.tensor:Tensor.__neg__": _TENSOR,
    "repro.nn.tensor:Tensor.__sub__._bw": _TENSOR,
    "repro.nn.tensor:Tensor.__rsub__": _TENSOR,
    "repro.nn.tensor:Tensor.__truediv__": _TENSOR,
    "repro.nn.tensor:Tensor.__rtruediv__": _TENSOR,
    "repro.nn.tensor:Tensor.__pow__": _TENSOR,
    "repro.nn.tensor:Tensor.__matmul__": _TENSOR,
    "repro.nn.tensor:Tensor.sum": _TENSOR,
    "repro.nn.tensor:Tensor.mean": _TENSOR,
    "repro.nn.tensor:Tensor.max": _TENSOR,
    "repro.nn.tensor:Tensor.transpose": _TENSOR,
    "repro.nn.tensor:Tensor.__getitem__": _TENSOR,
    "repro.nn.tensor:Tensor.exp": _TENSOR,
    "repro.nn.tensor:Tensor.log": _TENSOR,
    "repro.nn.tensor:Tensor.sqrt": _TENSOR,
    "repro.nn.tensor:Tensor.sigmoid": _TENSOR,
    "repro.nn.tensor:Tensor.tanh": _TENSOR,
    "repro.nn.tensor:Tensor.log_softmax": _TENSOR,
    "repro.nn.tensor:Tensor.softmax": _TENSOR,
    "repro.nn.tensor:stack": _TENSOR,
    "repro.nn.tensor:concatenate": _TENSOR,
    "repro.schemes.base:Scheme._run_round": _ABSTRACT,
    "repro.schemes.base:Scheme._async_units": _ABSTRACT,
    "repro.schemes.base:Scheme._async_unit_round": _ABSTRACT,
    "repro.schemes.base:Scheme._async_apply_update": _ABSTRACT,
    "repro.schemes.base:Scheme._async_load_eval_model": _ABSTRACT,
    "repro.schemes.base:Scheme._async_unit_weight": _ABSTRACT,
    "repro.schemes.parallel_split:ParallelSplitLearning.server_side_replicas": _PSL_STORAGE,
    "repro.schemes.parallel_split:ParallelSplitLearning.server_storage_bytes": _PSL_STORAGE,
    "repro.schemes.split_common:SplitFederatedScheme._units": _ABSTRACT,
    "repro.schemes.split_common:SplitFederatedScheme._unit_bandwidth": _ABSTRACT,
    "repro.schemes.split_common:SplitFederatedScheme.server_side_replicas": _STORAGE,
    "repro.schemes.split_common:SplitFederatedScheme.server_storage_bytes": _STORAGE,
    "repro.sim.engine:Environment.pending": _COUNTER,
    "repro.sim.events:_Condition._on_child": _ABSTRACT,
    "repro.sim.resources:Resource.in_use": _COUNTER,
    "repro.sim.resources:Resource.queued": _COUNTER,
    "repro.sim.resources:FairShareLink.active_flows": _COUNTER,
    "repro.sim.resources:SharePolicy.allocate": _ABSTRACT,
    "repro.sim.resources:SharePolicy.update":
        "EqualShare's update: FairShareLink's default policy, which every link a command "
        "builds overrides",
    "repro.sim.resources:EqualShare.allocate":
        "FairShareLink's default policy, which every link a command builds overrides",
    "repro.sim.runtime:Runtime.advance_to":
        "live code that only tier-1 reaches: _run_sync waits out a fleet that is all down",
    "repro.sim.server:StalenessPolicy.weight":
        "the barrier's weight: a sync round merges plain FedAvg and never asks it",
    "repro.sim.trace:TraceRecorder.total_time_by_phase": _SUMMARY,
    "repro.sim.trace:TraceRecorder.total_bytes_by_phase": _SUMMARY,
    "repro.sim.trace:TraceRecorder.filter":
        "the trace query tier-1 and the quantization ablation read",
    "repro.sim.transport:TransportCodec.wire_bytes": _ABSTRACT,
    "repro.sim.transport:TransportCodec.encode_flops": _ABSTRACT,
    "repro.sim.transport:TransportCodec.decode_flops": _ABSTRACT,
    "repro.sim.transport:TransportCodec.apply": _ABSTRACT,
    "repro.sim.transport:Float32Codec.encode_flops":
        "the identity codec's side of the codec interface: pricing asks only a lossy codec",
    "repro.sim.transport:Float32Codec.decode_flops":
        "the identity codec's side of the codec interface: pricing asks only a lossy codec",
    "repro.wireless.bandwidth:BandwidthAllocator.shares": _ABSTRACT,
    "repro.wireless.bandwidth:BandwidthAllocator._weights_to_shares": _ALLOCATOR,
    "repro.wireless.bandwidth:ProportionalRateAllocation.shares": _ALLOCATOR,
    "repro.wireless.bandwidth:ProportionalRateAllocation._spectral_efficiency": _ALLOCATOR,
    "repro.wireless.bandwidth:InverseRateAllocation.shares": _ALLOCATOR,
    "repro.wireless.bandwidth:AllocatorSharePolicy.update": _ALLOCATOR,
    "repro.wireless.channel:WirelessChannel.path_loss_db": _ALLOCATOR,
    "repro.wireless.channel:WirelessChannel.expected_snr_db": _ALLOCATOR,
}


@dataclass(frozen=True)
class Definition:
    """One ``def`` in the package's source."""

    module: str
    qualname: str
    path: str
    #: the code object's ``co_firstlineno``: the first decorator's line, else the ``def``'s
    first_line: int
    lines: int
    #: qualname of the enclosing ``def``, or None at module or class level
    parent: str | None

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def definitions(package: Path) -> list[Definition]:
    """Every function and method under ``package``, nested ones included."""
    found: list[Definition] = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(), str(path))

        def visit(node: ast.AST, scope: list[str], parent: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = ".".join([*scope, child.name])
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found.append(Definition(module, qualname, str(path), first,
                                            child.end_lineno - first + 1, parent))
                    visit(child, [*scope, child.name], qualname)
                elif isinstance(child, ast.ClassDef):
                    visit(child, [*scope, child.name], parent)
                else:
                    visit(child, scope, parent)

        visit(tree, [], None)
    return found


@contextlib.contextmanager
def recording() -> Iterator[set[CodeType]]:
    """Collect the code object of every Python frame entered inside."""
    called: set[CodeType] = set()

    def hook(frame: FrameType, event: str, arg: Any) -> None:
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield called
    finally:
        sys.setprofile(previous)
        threading.setprofile(previous)  # type: ignore[arg-type]


def unreached(defs: list[Definition], called: Iterable[CodeType]) -> list[Definition]:
    """The definitions never entered, outermost only.

    A code object is matched by file, first line and name: a module's own
    code starts at line 1 too, and must not stand for a ``def`` there.
    """
    hit = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
           for code in called}
    missing = [d for d in defs if (os.path.realpath(d.path), d.first_line,
                                   d.qualname.rsplit(".", 1)[-1]) not in hit]
    names = {(d.module, d.qualname) for d in missing}
    return [d for d in missing if d.parent is None or (d.module, d.parent) not in names]


def _allowing(key: str, module: str, allowed: dict[str, str]) -> str | None:
    return key if key in allowed else module if module in allowed else None


def problems(defs: list[Definition], missing: list[Definition],
             allowed: dict[str, str]) -> list[str]:
    """Unreached definitions without a reason, and stale allow-list entries."""
    out = [f"unreached and not allowed: {d.key} ({d.lines} lines)" for d in missing
           if _allowing(d.key, d.module, allowed) is None]
    keys = {d.key for d in defs}
    modules = {d.module for d in defs}
    used = {_allowing(d.key, d.module, allowed) for d in missing}
    for entry in allowed:
        if entry not in keys and entry not in modules:
            out.append(f"allowed but no longer exists: {entry}")
        elif entry not in used:
            out.append(f"allowed but no longer unreached: {entry}")
    return out


def report(missing: list[Definition], allowed: dict[str, str]) -> str:
    """The ledger: unreached definitions per module, then the totals."""
    rows: list[str] = []
    by_module: dict[str, list[Definition]] = {}
    for d in missing:
        by_module.setdefault(d.module, []).append(d)
    for module, group in sorted(by_module.items()):
        rows.append(f"{module}  ({sum(d.lines for d in group)} lines)")
        for d in group:
            reason = allowed.get(d.key) or allowed.get(d.module) or "-- no reason --"
            rows.append(f"  {d.lines:>4}  {d.qualname:<44} {reason}")
    total = sum(d.lines for d in missing)
    outside = sum(d.lines for d in missing if not d.module.startswith("repro.devtools"))
    rows.append(f"\n{len(missing)} unreached definitions, {total} lines; "
                f"{outside} lines outside devtools/")
    return "\n".join(rows)


def drive(work: Path, log: Callable[[str], None]) -> None:
    """Every invocation, then every e2e workload at smoke size (traced)."""
    from repro.cli import main

    trace = str(work / "trace.jsonl")
    runs = [(argv, 0) for argv in INVOCATIONS] + [(argv, 2) for argv in USAGE_ERRORS]
    for template, expected in runs:
        argv = [arg.replace("{trace}", trace) for arg in template]
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        log(f"{time.monotonic() - start:6.2f} s  repro {' '.join(argv)}")
        if code != expected:
            raise SystemExit(f"repro {' '.join(argv)} exited {code}, expected {expected}")

    sys.path.insert(0, str(E2E))
    import e2e_child
    from e2e_workloads import WORKLOADS

    for name in WORKLOADS:
        run_dir = work / name
        run_dir.mkdir()
        start = time.monotonic()
        with contextlib.redirect_stdout(io.StringIO()):
            code = e2e_child.main([
                "--workload", name, "--seed", "0", "--smoke", "--traced",
                "--out", str(run_dir / "result.json"), "--work-dir", str(run_dir),
                "--spawned-at", str(time.monotonic()),
            ])
        log(f"{time.monotonic() - start:6.2f} s  e2e {name} --smoke --traced")
        if code != 0:
            raise SystemExit(f"e2e workload {name} exited {code}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached definition without a reason in "
                        "ALLOWED, or on an entry that no longer exists or is reached")
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    sys.path.insert(0, str(PACKAGE.parent))
    with tempfile.TemporaryDirectory(prefix="reachability-") as work, recording() as called:
        drive(Path(work), log)
    defs = definitions(PACKAGE)
    missing = unreached(defs, called)
    print(report(missing, ALLOWED))
    if not args.check:
        return 0
    found = problems(defs, missing, ALLOWED)
    for line in found:
        print(f"reachability: {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
