"""Parent side of the end-to-end benchmark: a closed loop with one client.

One parent spawns one fresh child interpreter at a time (never
concurrently; BLAS threads stay at the library default and are recorded),
at least ``--repeats`` untraced repeats per workload and, when asked, one
traced repeat.  End-to-end metrics come only from the untraced repeats
(median; min and quartiles beside it), per-layer metrics only from the
traced one.  See README.md for the glossary and how to read the ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from e2e_workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
SRC = ROOT / "src"

#: untraced repeats per workload; never below this (too few for a
#: percentile with ten samples beyond it, so only median/min/quartiles)
MIN_REPEATS = 5
#: untraced repeats that give the traced repeat its overhead reference
#: when only per-layer metrics are asked for (``--trace 1``)
REFERENCE_REPEATS = 2

HOST_METRICS = ("setup_s", "run_wall_s", "process_wall_s", "client_rounds_per_s", "peak_rss_mb")
#: deterministic for a seed: every repeat of one commit must agree exactly
RESULT_METRICS = ("sim_latency_s", "wire_mb", "fleet_energy_j", "final_accuracy")
#: absolute drop of ``final_accuracy`` a documented float32 reassociation may cost
ACCURACY_SLACK = 0.02

NN_TRAIN_SPANS = (
    "nn.client_forward", "nn.client_backward", "nn.server_fwd_bwd",
    "nn.full_forward", "nn.full_backward",
)
#: ledger span -> name of its call-count metric (the rest are ``<span>_calls``)
CALL_METRIC = {
    "nn.server_fwd_bwd": "nn.split_steps",
    "nn.full_backward": "nn.full_steps",
    "nn.optim_step": "nn.optim_steps",
    "sim.link_submit": "sim.link_submits",
    "sim.link_abort": "sim.link_aborts",
}


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# one child
# ----------------------------------------------------------------------
def spawn_child(
    workload: str, seed: int, traced: bool, smoke: bool, scratch: Path,
    spans_out: Path | None = None,
) -> dict[str, Any]:
    """Run one repeat in a fresh interpreter; returns its sample."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    out = work / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    cmd = [
        sys.executable, str(BENCH_DIR / "e2e_child.py"),
        "--workload", workload, "--seed", str(seed),
        "--out", str(out), "--work-dir", str(work),
    ]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    with open(work / "stdout.txt", "wb") as so, open(work / "stderr.txt", "wb") as se:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [*cmd, "--spawned-at", repr(spawned_at)], stdout=so, stderr=se, env=env, cwd=ROOT
        )
        try:
            # wait4 gives this child's own rusage (RUSAGE_CHILDREN is a running max)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        exited_at = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not out.exists():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise RuntimeError(
            f"{workload}: child exited {proc.returncode} without a result\n{tail}"
        )
    sample = json.loads(out.read_text())
    host = sample["host"]
    host["process_wall_s"] = exited_at - spawned_at - host["collect_s"]
    host["client_rounds_per_s"] = sample["result"]["client_rounds"] / host["run_wall_s"]
    host["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    host["cpu_s"] = usage.ru_utime + usage.ru_stime
    sample["exit_code"] = proc.returncode
    shutil.rmtree(work)
    return sample


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict[str, float]:
    """Median, min and quartiles of the repeats (``n`` says how few they are)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "min": min(values),
        "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values),
    }


def steal_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this machine since boot."""
    try:
        cpu = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(cpu[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0  # not Linux: no steal accounting to read


def _deterministic_view(sample: dict[str, Any]) -> dict[str, Any]:
    result = sample["result"]
    return {k: result[k] for k in (*RESULT_METRICS, "client_rounds", "history_digest", "counts")}


def layer_metrics(
    traced: dict[str, Any], untraced_run_wall_s: float, load_1m: float
) -> dict[str, float]:
    """Flatten one traced sample into the per-layer metric names."""
    metrics: dict[str, float] = {}
    layers = traced["layers"]
    for span, row in layers.items():
        metrics[f"{span}_s"] = row["self_s"]
        metrics[CALL_METRIC.get(span, f"{span}_calls")] = row["calls"]
    metrics["data.train_samples"] = traced["layer_counts"].get("data.sample_batch", 0)
    metrics["exec.tasks"] = traced["layer_counts"].get("exec.map_groups", 0)
    host, result = traced["host"], traced["result"]
    metrics["cli.import_s"] = host["import_s"]
    metrics["cli.imported_modules"] = host["imported_modules"]
    metrics.update(result["counts"])
    nn_s = sum(layers.get(span, {}).get("self_s", 0.0) for span in NN_TRAIN_SPANS)
    metrics["nn.train_gflop"] = traced["train_gflop"]
    metrics["nn.gflops_per_s"] = traced["train_gflop"] / nn_s if nn_s else 0.0
    sim_s = sum(row["self_s"] for span, row in layers.items() if span.startswith("sim."))
    events = result["counts"]["sim.events_fired"]
    metrics["sim.host_us_per_event"] = 1e6 * sim_s / events if events else 0.0
    metrics["host.cpu_s"] = host["cpu_s"]
    metrics["host.cpu_util"] = host["cpu_s"] / host["process_wall_s"]
    metrics["host.loadavg_1m"] = load_1m
    metrics["ledger.coverage"] = traced["coverage"]
    metrics["ledger.overhead_ratio"] = host["run_wall_s"] / untraced_run_wall_s
    for name in (*RESULT_METRICS, "client_rounds"):
        metrics[f"result.{name}"] = result[name]
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, repeats: int, traced: bool, smoke: bool,
    scratch: Path, spans_out: Path | None = None,
) -> dict[str, Any]:
    """Untraced repeats (at least ``repeats``, more while they fit in
    ``seconds``), then the traced repeat if asked; checks that all agree."""
    nproc = os.cpu_count() or 1
    load_before, steal_before = os.getloadavg()[0], steal_seconds()
    if load_before > nproc - 0.5:
        print(f"warning: {name}: 1-min load {load_before:.2f} on {nproc} cores "
              f"before the first repeat; host-time metrics will be noisy", file=sys.stderr)
    samples: list[dict[str, Any]] = []
    started = time.monotonic()
    while True:
        samples.append(spawn_child(name, seed, False, smoke, scratch))
        elapsed = time.monotonic() - started
        if len(samples) >= repeats and elapsed + elapsed / len(samples) > seconds:
            break
    traced_sample = (
        spawn_child(name, seed, True, smoke, scratch, spans_out) if traced else None
    )
    everyone = samples + ([traced_sample] if traced_sample else [])

    errors = [e for s in everyone for e in s["ops"]["errors"]]
    attempted = sum(s["ops"]["attempted"] for s in everyone) + len(everyone)
    failed = sum(s["ops"]["failed"] for s in everyone)
    reference = _deterministic_view(everyone[0])
    for index, sample in enumerate(everyone):
        # one output check per repeat: clean exit, and the same history,
        # simulated metrics and counts as the first repeat
        if sample["exit_code"] != 0 and not sample["ops"]["failed"]:
            failed += 1
            errors.append(f"repeat {index}: exit code {sample['exit_code']}")
        elif _deterministic_view(sample) != reference:
            failed += 1
            errors.append(f"repeat {index}: results differ from repeat 0 (non-deterministic)")

    out: dict[str, Any] = {
        "seed": seed,
        "repeats": len(samples),
        "load_1m_before": load_before,
        "load_1m_after": os.getloadavg()[0],
        "steal_s": steal_seconds() - steal_before,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "errors": errors,
        "samples": {m: [s["host"][m] for s in samples] for m in HOST_METRICS},
        "result": reference,
        "env": samples[0]["env"],
    }
    out["end_to_end"] = {m: summarize(v) for m, v in out["samples"].items()}
    if traced_sample is not None:
        out["per_layer"] = layer_metrics(
            traced_sample, out["end_to_end"]["run_wall_s"]["median"], load_before
        )
        out["run_share"] = traced_sample["run_share"]
        out["spans"] = traced_sample["spans"]
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def noise_meta(child_env: dict[str, str]) -> dict[str, Any]:
    """What a reader needs to judge the noise: commit, versions, cores, threads."""
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:  # no git on this machine
        commit = None
    thread_env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "git_commit": commit,
        **child_env,  # python / numpy / BLAS as the children saw them
        "blas_threads": {k: os.environ.get(k, "library default (<= nproc)") for k in thread_env},
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def print_report(spec: dict[str, Any], name: str, res: dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"\n== {name} (seed {res['seed']}, {res['repeats']} untraced repeats; "
          f"too few for a tail percentile, so median/min/quartiles) ==")
    print(f"1-min load {res['load_1m_before']:.2f} -> {res['load_1m_after']:.2f}, "
          f"{res['steal_s']:.2f} CPU-s stolen by the hypervisor meanwhile")
    print(f"{'end-to-end metric':<24} {'median':>12} {'min':>12} {'q1':>12} {'q3':>12}  unit")
    for metric, row in res["end_to_end"].items():
        print(f"{metric:<24} {row['median']:>12.4f} {row['min']:>12.4f} "
              f"{row['q1']:>12.4f} {row['q3']:>12.4f}  {units.get(metric, '')}")
    print(f"{'failed_ops_ratio':<24} {res['failed_ops_ratio']:>12.4f}  "
          f"({res['failed']} of {res['attempted']})")
    for metric in RESULT_METRICS:
        print(f"{'result.' + metric:<24} {res['result'][metric]:>12.6g}  "
              f"{units.get('result.' + metric, '')}")
    if "per_layer" in res:
        print(f"{'per-layer metric':<28} {'value':>14}  {'unit':<8} share of the traced run window")
        for m in spec["per_layer"]:
            metric = m["name"]
            share = res["run_share"].get(metric.removesuffix("_s")) if metric.endswith("_s") else None
            print(f"{metric:<28} {res['per_layer'].get(metric, 0):>14.6g}  {m['unit']:<8} "
                  f"{'' if share is None else format(share, '7.1%')}")
    for message in res["errors"]:
        print(f"FAILED CHECK: {message}")


def contract_line(spec: dict[str, Any], res: dict[str, Any], trace: bool) -> str:
    """The driver's last-line JSON: every end-to-end or every per-layer metric."""
    def value(name: str) -> float:
        return res["per_layer"].get(name, 0) if trace else res["end_to_end"][name]["median"]

    return json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
            for m in spec["per_layer" if trace else "end_to_end"]
        },
    })


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> str:
    """``better / same / worse / unresolved`` for one host-time metric.

    The change's median may be worse than the parent's by at most
    ``bound`` (a share of the parent's median).  Where the parent's own
    inter-quartile distance is wider than that bound the answer is
    ``unresolved`` — unless every run of one side beats every run of the
    other, or the medians differ by more than the spread too.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = summarize(parent), summarize(change)
    worse_by = sign * (c["median"] - p["median"])
    allowed = bound * abs(p["median"])
    noise = p["iqr"]
    if noise > allowed:
        if worse_by > noise:
            return "worse"
        if max(sign * v for v in change) < min(sign * v for v in parent):
            return "better"
        return "unresolved"
    if worse_by > allowed:
        return "worse"
    return "better" if -worse_by > max(noise, allowed) else "same"


def exact_verdict(name: str, parent: Any, change: Any, same_seed: bool) -> str:
    if not same_seed:
        return "unresolved"
    if parent == change:
        return "same"
    if name == "final_accuracy":
        if change > parent:
            return "better"
        return "unresolved" if parent - change <= ACCURACY_SLACK else "worse"
    return "worse"  # a host-side change must leave simulated answers bit-identical


def compare(spec: dict[str, Any], parent_path: Path, change_path: Path) -> int:
    """Print one row per workload x metric; exit 1 on any ``worse``."""
    parent = json.loads(parent_path.read_text())["workloads"]
    change = json.loads(change_path.read_text())["workloads"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    any_worse = False
    print(f"{'workload':<18} {'metric':<22} {'parent med [q1, q3]':>34} "
          f"{'change med [q1, q3]':>34}  verdict")
    for name in parent:
        if name not in change:
            print(f"{name:<18} missing from {change_path}")
            continue
        a, b = parent[name], change[name]
        same_seed = a["seed"] == b["seed"]
        rows: list[tuple[str, str, str, str]] = []
        for metric in HOST_METRICS:
            sa, sb = a["end_to_end"][metric], b["end_to_end"][metric]
            rows.append((
                metric,
                f"{sa['median']:.4f} [{sa['q1']:.4f}, {sa['q3']:.4f}]",
                f"{sb['median']:.4f} [{sb['q1']:.4f}, {sb['q3']:.4f}]",
                verdict(a["samples"][metric], b["samples"][metric],
                        bounds[metric]["better"], bounds[metric]["bound"]),
            ))
        rows.append((
            "failed_ops_ratio", f"{a['failed_ops_ratio']:.4f}", f"{b['failed_ops_ratio']:.4f}",
            "worse" if b["failed_ops_ratio"] > a["failed_ops_ratio"]
            else "better" if b["failed_ops_ratio"] < a["failed_ops_ratio"] else "same",
        ))
        for metric in (*RESULT_METRICS, "history_digest", "counts"):
            va, vb = a["result"][metric], b["result"][metric]
            shown = (lambda v: f"{v:.12g}") if isinstance(va, float) else (lambda v: str(v)[:12])
            rows.append((metric, shown(va), shown(vb), exact_verdict(metric, va, vb, same_seed)))
        for metric, left, right, outcome in rows:
            any_worse |= outcome == "worse"
            print(f"{name:<18} {metric:<22} {left:>34} {right:>34}  {outcome}")
    return 1 if any_worse else 0


# ----------------------------------------------------------------------
# entry
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: the only thing that reaches the program's --seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep adding untraced repeats while they fit in this many "
                        "seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS,
                        help=f"minimum untraced repeats per workload (default {MIN_REPEATS})")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="driver mode for one workload: 0 prints the end-to-end metrics "
                        "as the last line, 1 the per-layer metrics of one traced repeat; "
                        "default: both, as tables")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test sizes: fast-sized workloads, 1 round, 1 repeat")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full result (meta, raw samples, ledger) as JSON")
    parser.add_argument("--spans-out", type=Path, default=None,
                        help="write the traced repeat's raw spans as JSONL (one workload)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"),
                        help="compare two --out files; exit 1 on any 'worse'")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: {SRC}/repro is not there; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if (args.trace is not None or args.spans_out is not None) and len(names) != 1:
        parser.error("--trace and --spans-out take exactly one --workload")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    repeats = args.repeats
    if args.smoke:
        seconds, repeats = 0.0, 1
    elif args.trace == "1":
        seconds, repeats = 0.0, REFERENCE_REPEATS

    # SIGTERM unwinds like Ctrl-C, so the child is killed and the scratch removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results: dict[str, Any] = {}
    scratch = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        for name in names:
            res = run_workload(name, args.seed, seconds, repeats, args.trace != "0",
                               args.smoke, scratch, args.spans_out)
            results[name] = res
            print_report(spec, name, res)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out is not None:
        meta = noise_meta(results[names[0]]["env"])
        args.out.write_text(json.dumps(
            {"meta": meta, "smoke": args.smoke, "workloads": results}, indent=1
        ))
    if args.trace is not None:
        print(contract_line(spec, results[names[0]], args.trace == "1"))
    return 1 if any(r["failed"] for r in results.values()) else 0
