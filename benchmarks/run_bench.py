"""Substrate + runtime performance tracker: dump op → median seconds as JSON.

Runs the hot-path micro-operations (the same bodies as
``test_microbench_nn.py``) under the current substrate settings and
writes ``BENCH_substrate.json``, so the perf trajectory is tracked in-repo
from PR to PR; also runs the event-driven runtime scenarios (static vs
contended medium, homogeneous vs heterogeneous fleets) and writes
``BENCH_runtime.json`` with the measured latency divergence::

    PYTHONPATH=src python benchmarks/run_bench.py                 # float32
    PYTHONPATH=src python benchmarks/run_bench.py --quick         # CI smoke
    PYTHONPATH=src python benchmarks/run_bench.py --dtype float64
    PYTHONPATH=src python benchmarks/run_bench.py --compare old.json

``--compare`` embeds per-op speedups against a previously dumped file
(e.g. one generated from the seed commit) into the output; ``--quick``
shrinks timing budgets for the non-gating CI smoke step.

``BENCH_runtime.json`` also carries a ``scale`` section — DES events/sec
and peak event-queue depth at 100 / 1k / 10k concurrent flows, for the
incremental fair-share engines against the retained dense reference —
and ``--profile`` re-runs the largest scale workload under ``cProfile``
and prints the top-20 cumulative entries.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import time

import numpy as np

from repro import nn
from repro.core.aggregation import fedavg
from repro.models import deepthin_cnn
from repro.nn.split import split_model
from repro.nn.tensor import Tensor
from repro.schemes.base import Activity, Stage
from repro.sim.runtime import Runtime


def _timeit(fn, *, min_rounds: int = 5, min_time_s: float = 0.5) -> dict:
    """Median + p95 wall-clock seconds of ``fn()`` (warmup excluded)."""
    fn()  # warmup / JIT caches / BLAS thread spin-up
    samples: list[float] = []
    budget_start = time.perf_counter()
    while len(samples) < min_rounds or time.perf_counter() - budget_start < min_time_s:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        if len(samples) >= 200:
            break
    ordered = sorted(samples)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return {
        "median_s": statistics.median(samples),
        "p95_s": p95,
        "rounds": len(samples),
    }


def bench_conv_forward() -> "callable":
    model = deepthin_cnn(num_classes=43, image_size=20, seed=0)
    model.eval()
    x = np.random.default_rng(0).normal(size=(16, 3, 20, 20))

    def op():
        from repro.nn.tensor import no_grad

        with no_grad():
            return model(Tensor(x))

    return op


def bench_full_training_step() -> "callable":
    model = deepthin_cnn(num_classes=43, image_size=20, seed=0)
    opt = nn.SGD(model.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 3, 20, 20))
    y = rng.integers(0, 43, size=16)

    def op():
        opt.zero_grad()
        loss = loss_fn(model(Tensor(x)), y)
        loss.backward()
        opt.step()
        return loss

    return op


def bench_split_training_step() -> "callable":
    model = deepthin_cnn(num_classes=43, image_size=20, seed=0)
    sm = split_model(model, 4)
    c_opt = nn.SGD(sm.client.parameters(), lr=0.01)
    s_opt = nn.SGD(sm.server.parameters(), lr=0.01)
    loss_fn = nn.CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 3, 20, 20))
    y = rng.integers(0, 43, size=16)

    def op():
        smashed = sm.client.forward_to_smashed(x)
        s_opt.zero_grad()
        _, grad, _ = sm.server.forward_backward(smashed, y, loss_fn)
        s_opt.step()
        c_opt.zero_grad()
        sm.client.backward_from_gradient(grad)
        c_opt.step()

    return op


def bench_fedavg_aggregation() -> "callable":
    states = [deepthin_cnn(seed=s).state_dict() for s in range(6)]
    weights = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    return lambda: fedavg(states, weights)


def bench_fedavg_flat_30() -> "callable":
    states = [deepthin_cnn(seed=s).state_dict() for s in range(30)]
    weights = [float(1 + s % 5) for s in range(30)]
    return lambda: fedavg(states, weights)


def bench_des_replay() -> "callable":
    def op():
        stage = Stage("training")
        for g in range(6):
            stage.extend(
                f"group-{g}",
                [
                    Activity(0.01 * (i % 7 + 1), "client_compute", f"g{g}")
                    for i in range(100)
                ],
            )
        return Runtime().execute_round([stage], None, 0)

    return op


def bench_fair_share_link(n_flows: int = 60) -> "callable":
    """Shared-medium churn: ``n_flows`` staggered flows joining and leaving.

    Arrivals are staggered tightly relative to transfer times so nearly
    all flows are concurrently active — the worst case for the
    fair-share reallocation kernel.  The returned op records the DES
    event count on ``op.events`` so the driver can report median and p95
    *per-event* cost alongside the whole-run timing.
    """
    from repro.sim.engine import Environment
    from repro.sim.resources import FairShareLink

    def op():
        env = Environment()
        link = FairShareLink(env, capacity_bps=1e6)

        def sender(start, bits):
            yield env.timeout(start)
            yield link.transfer(bits)

        for i in range(n_flows):
            env.process(sender(0.01 * i, 1e4 + 100.0 * i))
        env.run()
        op.events = env.events_fired
        return env.now

    return op


def bench_gsfl_round() -> "callable":
    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    def op():
        built = fast_scenario(with_wireless=True, num_clients=6, num_groups=6).build()
        make_scheme("GSFL", built).run(1)

    return op


OPS: dict[str, "callable"] = {
    "conv_forward": bench_conv_forward,
    "full_training_step": bench_full_training_step,
    "split_training_step": bench_split_training_step,
    "fedavg_aggregation": bench_fedavg_aggregation,
    "fedavg_flat_30": bench_fedavg_flat_30,
    "des_replay": bench_des_replay,
    "fair_share_link_8": lambda: bench_fair_share_link(8),
    "fair_share_link_64": lambda: bench_fair_share_link(64),
    "fair_share_link_512": lambda: bench_fair_share_link(512),
}


def _churn_run(
    n_flows: int, incremental: bool, policy=None, budget_s: float | None = None
) -> dict:
    """One fleet-scale churn run; returns events/sec + queue high-water.

    ``n_flows`` senders arrive microseconds apart with megabit payloads on
    a gigabit link, so essentially the whole fleet is concurrently active
    before the first completion — the regime where the dense kernel's
    O(active) reallocation per membership change goes quadratic and the
    incremental engines stay O(log active).

    ``budget_s`` truncates the run after that much host wall-clock (the
    dense reference at 10k flows would otherwise take tens of minutes);
    throughput is then the steady-state rate over the budget window and
    the row is marked ``truncated``.
    """
    from repro.sim.engine import Environment
    from repro.sim.resources import FairShareLink

    env = Environment()
    link = FairShareLink(env, 1e9, policy=policy, incremental=incremental)

    def sender(i):
        yield env.timeout(1e-6 * i)
        yield link.transfer(1e6 + i, client=i % 32 if policy is not None else None)

    for i in range(n_flows):
        env.process(sender(i))
    t0 = time.perf_counter()
    truncated = False
    if budget_s is None:
        env.run()
    else:
        deadline = t0 + budget_s
        while time.perf_counter() < deadline:
            if not env.pending:
                break
            env.step()
        else:
            truncated = True
    wall = time.perf_counter() - t0
    row = {
        "events": env.events_fired,
        "wall_s": round(wall, 4),
        "events_per_s": round(env.events_fired / wall, 1),
        "peak_pending": env.peak_pending,
    }
    if truncated:
        row["truncated"] = True
    return row


def scale_report(quick: bool, profile: bool = False) -> dict:
    """Events/sec and peak queue depth vs fleet size → the ``scale`` section.

    Runs the churn workload at 100 / 1 000 / 10 000 concurrent flows
    (``--quick`` stops at 1 000) with the incremental EqualShare engine
    and the retained dense reference, reporting the events/sec ratio —
    the number the fleet-scale acceptance bar (≥10x at 10k flows) reads.
    The contended allocator policy is membership-coupled and keeps the
    dense engine by design, so it is capped at 1 000 flows and reported
    for queue-hygiene (peak pending) rather than speedup.

    The committed ``BENCH_runtime.json`` ratios ("× over dense") were
    measured against the pre-PR-15 dense engine, which queued one
    completion per flow per reallocation; the dense engine now queues
    one per link, so a fresh run reports smaller ratios (and a dense
    ``peak_pending`` near 1) without the incremental engines having
    changed.  The contended medium's host cost is tracked end to end by
    ``BENCHMARK.json`` workload ``fleet-contended``.

    With ``profile=True`` the largest incremental run is re-executed
    under :mod:`cProfile` and the top-20 cumulative entries are printed,
    pointing at the next hot path.
    """
    from repro.wireless.bandwidth import ProportionalRateAllocation, as_share_policy
    from repro.wireless.channel import WirelessChannel

    sizes = (100, 1000) if quick else (100, 1000, 10000)
    contended_cap = 1000
    report: dict = {
        "workload": "staggered arrivals, ~all flows concurrently active",
        "contended_note": (
            "allocator-backed policies are membership-coupled (dense engine "
            f"by design); capped at {contended_cap} flows"
        ),
        "fleets": {},
    }

    def contended_policy():
        channel = WirelessChannel(
            distances_m=np.linspace(50.0, 500.0, 32),
            rng=np.random.default_rng(7),
        )
        return as_share_policy(ProportionalRateAllocation(1e9), channel)

    for n in sizes:
        # The dense reference is quadratic: run it to completion only
        # where that is affordable, else sample steady-state throughput
        # over a fixed host-time window.
        dense_budget = None
        if n >= 10000:
            dense_budget = 10.0
        elif quick and n >= 1000:
            dense_budget = 3.0
        row = {"equal_incremental": _churn_run(n, True)}
        row["equal_dense"] = _churn_run(n, False, budget_s=dense_budget)
        row["incremental_speedup"] = round(
            row["equal_incremental"]["events_per_s"]
            / row["equal_dense"]["events_per_s"],
            2,
        )
        if n <= contended_cap:
            row["contended_dense"] = _churn_run(n, True, policy=contended_policy())
        report["fleets"][str(n)] = row
        inc, dense = row["equal_incremental"], row["equal_dense"]
        print(f"{f'scale fleet={n}':>24}: incremental {inc['events_per_s']:>12,.0f} ev/s "
              f"(peak {inc['peak_pending']}) | dense {dense['events_per_s']:>12,.0f} ev/s "
              f"(peak {dense['peak_pending']}) | {row['incremental_speedup']:.1f}x")

    if profile:
        import cProfile
        import pstats

        prof = cProfile.Profile()
        prof.enable()
        _churn_run(max(sizes), True)
        prof.disable()
        print(f"\n--- cProfile: incremental churn at {max(sizes)} flows "
              "(top 20, cumulative) ---")
        pstats.Stats(prof).sort_stats("cumulative").print_stats(20)
    return report


def runtime_report(quick: bool, profile: bool = False) -> dict:
    """Event-driven runtime scenarios → the BENCH_runtime.json payload.

    Measures the contention-aware medium against the static-subchannel
    model: with homogeneous devices the group pipelines stay in near
    lockstep and the two agree closely; with a heterogeneous fleet the
    pipelines drift, idle subchannels get re-allocated, and the
    DES-resolved latency measurably diverges from the static analytic
    numbers.
    """
    import time
    from dataclasses import replace

    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    rounds = 1 if quick else 3
    report: dict = {"rounds": rounds, "scheme": "GSFL", "scenarios": {}}

    def run(medium: str, het: float):
        scenario = fast_scenario(with_wireless=True)
        scenario.wireless = replace(scenario.wireless, heterogeneity=het)
        scenario.scheme = replace(scenario.scheme, medium=medium)
        scheme = make_scheme("GSFL", scenario.build())
        t0 = time.perf_counter()
        history = scheme.run(rounds)
        wall = time.perf_counter() - t0
        return scheme, history, wall

    for het in (0.0, 1.0):
        static_scheme, static_hist, static_wall = run("static", het)
        cont_scheme, cont_hist, cont_wall = run("contended", het)
        static_lat = static_hist.total_latency_s
        cont_lat = cont_hist.total_latency_s
        report["scenarios"][f"heterogeneity_{het:g}"] = {
            "static_latency_s": static_lat,
            "contended_latency_s": cont_lat,
            "divergence": cont_lat / static_lat - 1.0,
            "analytic_latency_s": sum(t.analytic_s for t in static_scheme.round_timings),
            "lower_bound_s": sum(t.lower_bound_s for t in static_scheme.round_timings),
            "host_wall_static_s": round(static_wall, 4),
            "host_wall_contended_s": round(cont_wall, 4),
        }
        label = f"gsfl het={het:g}"
        print(f"{label:>24}: static {static_lat:8.3f} s | contended {cont_lat:8.3f} s "
              f"({(cont_lat / static_lat - 1.0) * 100:+.2f}%)")
    report["async"] = async_round_latency_report(quick)
    report["failures"] = failure_model_report(quick)
    report["grouping"] = grouping_report(quick)
    report["transport"] = transport_report(quick)
    report["catalog"] = catalog_report(quick)
    report["scale"] = scale_report(quick, profile=profile)
    return report


def catalog_report(quick: bool) -> dict:
    """One pinned bench row per catalog scenario, plus a replay check.

    Every registered fast-scale world (the paper-scale preset is skipped
    for cost) runs GSFL and FL for the same round budget, so scheme
    comparisons across scenarios become one table: total DES latency,
    accuracy, and the abort/retry fault ledger per world.  The section
    closes with a record→replay round trip — a churn run is exported via
    the JSONL trace format and re-driven through
    ``--scenario replay:<path>`` — asserting the per-round availability
    and participant sets reproduce exactly.
    """
    import os
    import tempfile

    from repro.cli import _export_trace
    from repro.experiments.catalog import get_scenario, list_scenarios
    from repro.experiments.runner import make_scheme

    rounds = 1 if quick else 2
    schemes = ("GSFL", "FL")
    report: dict = {"rounds": rounds, "schemes": list(schemes), "worlds": {}}
    for entry in list_scenarios():
        if entry.name == "paper":
            continue  # paper-scale fleet: too costly for the smoke table
        row: dict = {"tags": list(entry.tags)}
        for scheme_name in schemes:
            scheme = make_scheme(scheme_name, get_scenario(entry.name).build())
            history = scheme.run(rounds)
            row[scheme_name] = {
                "total_latency_s": history.total_latency_s,
                "final_accuracy": history.final_accuracy,
                "aborts": len(scheme.recorder.aborts),
                "retries": len(scheme.recorder.retries),
            }
            label = f"{scheme_name} @ {entry.name}"
            print(f"{label:>24}: total {history.total_latency_s:8.3f} s, "
                  f"acc {history.final_accuracy:.3f}, "
                  f"aborts {row[scheme_name]['aborts']}")
        report["worlds"][entry.name] = row

    # Record→replay round trip on the churn world.
    recorded = make_scheme("GSFL", get_scenario("churn").build())
    recorded.run(rounds)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.jsonl")
        _export_trace(path, recorded, scenario_name="churn")
        replayed = make_scheme("GSFL", get_scenario(f"replay:{path}").build())
        replayed.run(rounds)
    conditions = lambda scheme: [  # noqa: E731
        (rc.round_index, rc.available, rc.participants)
        for rc in scheme.dynamics.round_log
    ]
    exact = conditions(recorded) == conditions(replayed)
    report["replay_roundtrip_exact"] = bool(exact)
    print(f"{'replay roundtrip':>24}: {'exact' if exact else 'DIVERGED'}")
    return report


def async_round_latency_report(quick: bool) -> dict:
    """Async-vs-sync GSFL round latency under straggler injection.

    Per-round stragglers hit random groups, so the barrier pays the
    slowest group's penalty every round (sum of per-round maxima) while
    the barrier-free policies only pay each group's own penalties (max of
    per-group sums) — the wall-clock argument for dropping the barrier.
    One row per aggregation mode, plus the per-update staleness profile.

    The fleet is heterogeneous (log-normal compute spread) so the group
    pipelines genuinely drift apart and the barrier-free policies bank
    *observable* staleness; ``updates``/``max_staleness``/``mean_staleness``
    come straight from the server's ``UpdateRecord`` commit log.  The sync
    barrier never routes through the server, so its row reports the
    barrier's own ledger: every group commits every round at staleness 0
    by construction.
    """
    from dataclasses import replace

    from repro.experiments.dynamics import DynamicsConfig
    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    rounds = 2 if quick else 4
    straggler_rate = 0.4
    heterogeneity = 1.0
    report: dict = {
        "scheme": "GSFL",
        "rounds": rounds,
        "straggler_rate": straggler_rate,
        "straggler_slowdown": 5.0,
        "heterogeneity": heterogeneity,
        "modes": {},
    }
    for mode in ("sync", "bounded:1", "bounded:2", "async"):
        scenario = fast_scenario(with_wireless=True)
        scenario.wireless = replace(scenario.wireless, heterogeneity=heterogeneity)
        scenario.dynamics = DynamicsConfig(
            straggler_rate=straggler_rate, straggler_slowdown=5.0, seed=0
        )
        scenario.scheme = replace(scenario.scheme, aggregation=mode)
        scheme = make_scheme("GSFL", scenario.build())
        history = scheme.run(rounds)
        total = history.total_latency_s
        if scheme.aggregation_policy.synchronous:
            # Barrier ledger: one commit per group per round, never stale.
            staleness = [0] * (scheme.num_groups * rounds)
        else:
            staleness = [u.staleness for u in scheme.aggregation_updates]
        report["modes"][mode] = {
            "total_latency_s": total,
            "mean_round_latency_s": total / rounds,
            "final_accuracy": history.final_accuracy,
            "updates": len(staleness),
            "max_staleness": max(staleness) if staleness else 0,
            "mean_staleness": (
                sum(staleness) / len(staleness) if staleness else 0.0
            ),
        }
        label = f"gsfl {mode} strag={straggler_rate:g}"
        print(f"{label:>24}: total {total:8.3f} s "
              f"({total / rounds:.3f} s/round), "
              f"max staleness {report['modes'][mode]['max_staleness']}")
    sync_total = report["modes"]["sync"]["total_latency_s"]
    for mode, row in report["modes"].items():
        row["speedup_vs_sync"] = sync_total / row["total_latency_s"]
    return report


def failure_model_report(quick: bool) -> dict:
    """Mid-activity failure injection: per-scheme latency at churn on/off.

    Each scheme runs the same churn trace twice — ``failure_model="none"``
    (clients never fail: the no-churn baseline) and ``"mid-activity"``
    (in-flight preemption with retry/reroute/surrender recovery) — so the
    latency delta is exactly the cost of failures plus recovery.  Abort
    accounting comes from the trace recorder (every preemption resolves
    to a retry row, a reroute, or a surrender).
    """
    from repro.experiments.dynamics import DynamicsConfig
    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    rounds = 2 if quick else 4
    churn = {"churn_uptime_s": 0.15, "churn_downtime_s": 0.05}
    report: dict = {
        "rounds": rounds,
        "max_retries": 2,
        **churn,
        "schemes": {},
    }
    for name in ("GSFL", "SplitFed", "FL"):
        row: dict = {}
        for model in ("none", "mid-activity"):
            scenario = fast_scenario(with_wireless=True)
            scenario.dynamics = DynamicsConfig(
                failure_model=model, max_retries=2, seed=0, **churn
            )
            scheme = make_scheme(name, scenario.build())
            history = scheme.run(rounds)
            aborts = scheme.recorder.aborts
            key = "churn_off" if model == "none" else "churn_on"
            row[key] = {
                "failure_model": model,
                "total_latency_s": history.total_latency_s,
                "final_accuracy": history.final_accuracy,
                "aborts": len(aborts),
                "retries": len(scheme.recorder.retries),
                "reroutes": sum(a.resolution == "reroute" for a in aborts),
                "surrenders": sum(a.resolution == "surrender" for a in aborts),
            }
        off, on = row["churn_off"], row["churn_on"]
        row["latency_overhead"] = on["total_latency_s"] / off["total_latency_s"] - 1.0
        report["schemes"][name] = row
        print(f"{name + ' failures':>24}: off {off['total_latency_s']:8.3f} s | "
              f"on {on['total_latency_s']:8.3f} s "
              f"({row['latency_overhead'] * 100:+.1f}%, {on['aborts']} aborts, "
              f"{on['retries']} retries, {on['surrenders']} surrenders)")
    return report

#: trace phases whose rows carry payloads that actually hit the air
TRANSMIT_PHASES = (
    "model_distribution",
    "uplink_smashed",
    "downlink_gradient",
    "model_relay",
    "model_upload",
    "model_download",
)


def transport_report(quick: bool) -> dict:
    """Accuracy-vs-latency frontier across transport codecs → ``transport``.

    GSFL and SplitFed each run the same scenario under every named codec:
    ``float32`` (identity wire, the bitwise-pinned baseline), ``int8`` /
    ``intk:4`` (uniform-affine quantization), and ``topk:0.1`` (magnitude
    sparsification).  Wire bytes are measured off the trace recorder (sum
    of payload bytes over the transmit phases), so the reduction column
    is what the DES actually shipped — encode/decode compute is priced on
    the owning devices and therefore included in the latency column.  A
    second pass replays each codec under the mid-activity churn trace of
    the failure benchmark and reports the abort/retry counts: smaller
    payloads spend less airtime inside the preemption window.
    """
    from dataclasses import replace

    from repro.experiments.dynamics import DynamicsConfig
    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    rounds = 1 if quick else 3
    codecs = ("float32", "int8", "intk:4", "topk:0.1")
    churn = {"churn_uptime_s": 0.15, "churn_downtime_s": 0.05}
    report: dict = {
        "rounds": rounds,
        "codecs": list(codecs),
        "churn": {**churn, "failure_model": "mid-activity", "max_retries": 2},
        "schemes": {},
    }

    def wire_bytes(scheme) -> int:
        totals = scheme.recorder.total_bytes_by_phase()
        return sum(totals.get(phase, 0) for phase in TRANSMIT_PHASES)

    for name in ("GSFL", "SplitFed"):
        rows: dict = {}
        for codec in codecs:
            scenario = fast_scenario(with_wireless=True)
            scenario.scheme = replace(scenario.scheme, transport=codec)
            scheme = make_scheme(name, scenario.build())
            history = scheme.run(rounds)

            churn_scenario = fast_scenario(with_wireless=True)
            churn_scenario.scheme = replace(churn_scenario.scheme, transport=codec)
            churn_scenario.dynamics = DynamicsConfig(
                failure_model="mid-activity", max_retries=2, seed=0, **churn
            )
            churn_scheme = make_scheme(name, churn_scenario.build())
            churn_scheme.run(rounds)

            rows[codec] = {
                "total_latency_s": history.total_latency_s,
                "final_accuracy": history.final_accuracy,
                "wire_bytes": wire_bytes(scheme),
                "churn_aborts": len(churn_scheme.recorder.aborts),
                "churn_retries": len(churn_scheme.recorder.retries),
                "churn_surrenders": sum(
                    a.resolution == "surrender"
                    for a in churn_scheme.recorder.aborts
                ),
            }
        base = rows["float32"]
        for codec, row in rows.items():
            row["wire_reduction_vs_float32"] = (
                base["wire_bytes"] / row["wire_bytes"]
            )
            row["latency_speedup_vs_float32"] = (
                base["total_latency_s"] / row["total_latency_s"]
            )
            print(f"{name + ' ' + codec:>24}: "
                  f"latency {row['total_latency_s']:8.3f} s "
                  f"({row['latency_speedup_vs_float32']:.2f}x), "
                  f"wire {row['wire_bytes'] / 1e6:7.3f} MB "
                  f"({row['wire_reduction_vs_float32']:.2f}x), "
                  f"acc {row['final_accuracy']:.3f}, "
                  f"{row['churn_aborts']} aborts under churn")
        report["schemes"][name] = rows
    return report


def grouping_report(quick: bool) -> dict:
    """Static vs churn-aware regrouping under the PR-4 churn benchmark.

    GSFL runs the same mid-activity churn trace (uptime 0.15 s / downtime
    0.05 s, the failure-report setting) once per regroup policy:
    ``static`` keeps the contiguous construction-time partition,
    ``availability_aware`` re-deals every round by expected remaining
    up-time from the churn trace, ``abort_history`` by the EWMA of the
    per-client abort/retry telemetry.  The fleet is 12 clients in 4
    groups (3-hop relay chains) so a regroup has real routing freedom.
    Abort/retry/surrender accounting comes from the trace recorder; the
    churn-aware policies' value is exactly the abort+surrender count they
    shave off the static baseline.
    """
    from dataclasses import replace

    from repro.experiments.dynamics import DynamicsConfig
    from repro.experiments.runner import make_scheme
    from repro.experiments.scenario import fast_scenario

    rounds = 2 if quick else 4
    churn = {"churn_uptime_s": 0.15, "churn_downtime_s": 0.05}
    report: dict = {
        "scheme": "GSFL",
        "num_clients": 12,
        "num_groups": 4,
        "rounds": rounds,
        "max_retries": 2,
        "regroup_every": 1,
        "grouping": "contiguous",
        **churn,
        "policies": {},
    }
    for policy in ("static", "availability_aware", "abort_history"):
        scenario = fast_scenario(with_wireless=True, num_clients=12, num_groups=4)
        scenario.dynamics = DynamicsConfig(
            failure_model="mid-activity", max_retries=2, seed=0, **churn
        )
        scenario.scheme = replace(
            scenario.scheme, regroup=policy, regroup_every=1
        )
        scheme = make_scheme("GSFL", scenario.build())
        history = scheme.run(rounds)
        aborts = scheme.recorder.aborts
        surrenders = sum(a.resolution == "surrender" for a in aborts)
        report["policies"][policy] = {
            "total_latency_s": history.total_latency_s,
            "final_accuracy": history.final_accuracy,
            "aborts": len(aborts),
            "retries": len(scheme.recorder.retries),
            "reroutes": sum(a.resolution == "reroute" for a in aborts),
            "surrenders": surrenders,
            "aborts_plus_surrenders": len(aborts) + surrenders,
            "regroups": len(scheme.recorder.regroups),
        }
    baseline = report["policies"]["static"]["aborts_plus_surrenders"]
    for policy, row in report["policies"].items():
        row["abort_surrender_reduction_vs_static"] = (
            1.0 - row["aborts_plus_surrenders"] / baseline if baseline else 0.0
        )
        print(f"{'gsfl regroup ' + policy:>36}: "
              f"{row['aborts']} aborts + {row['surrenders']} surrenders = "
              f"{row['aborts_plus_surrenders']} "
              f"({row['abort_surrender_reduction_vs_static'] * 100:+.1f}% vs static), "
              f"latency {row['total_latency_s']:.3f} s")
    return report


#: whole-round ops, timed with the round budget
ROUND_OPS = {"gsfl_round_serial": bench_gsfl_round}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dtype", choices=("float32", "float64"), default="float32")
    parser.add_argument("-o", "--output", default="BENCH_substrate.json")
    parser.add_argument("--runtime-output", default="BENCH_runtime.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink timing budgets (CI smoke step)",
    )
    parser.add_argument(
        "--compare", default=None,
        help="previous run_bench JSON; speedups vs it are embedded",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the largest scale-bench run; print top-20 cumulative",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.compare:
        # Validate up front — don't burn minutes of timing first.
        with open(args.compare) as fh:
            baseline = json.load(fh)

    try:
        nn.set_default_dtype(args.dtype)
        dtype = args.dtype
    except AttributeError:  # pre-dtype substrate (seed baseline runs)
        dtype = "float64"

    micro_time = 0.1 if args.quick else 0.5
    round_time = 0.2 if args.quick else 1.0
    results: dict[str, dict] = {}
    for name, make_op in OPS.items():
        op = make_op()
        results[name] = _timeit(op, min_time_s=micro_time)
        events = getattr(op, "events", None)
        if events:  # DES ops report per-event cost (median + tail)
            results[name]["events"] = events
            results[name]["median_per_event_us"] = round(
                results[name]["median_s"] / events * 1e6, 3
            )
            results[name]["p95_per_event_us"] = round(
                results[name]["p95_s"] / events * 1e6, 3
            )
        print(f"{name:>24}: {results[name]['median_s'] * 1e3:9.3f} ms "
              f"({results[name]['rounds']} rounds)"
              + (f", {results[name]['median_per_event_us']:.2f} us/event med, "
                 f"{results[name]['p95_per_event_us']:.2f} us/event p95"
                 if events else ""))
    for name, make_op in ROUND_OPS.items():
        results[name] = _timeit(make_op(), min_rounds=2 if args.quick else 3,
                                min_time_s=round_time)
        print(f"{name:>24}: {results[name]['median_s'] * 1e3:9.3f} ms "
              f"({results[name]['rounds']} rounds)")

    out = {
        "meta": {
            "dtype": dtype,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "ops": results,
    }
    if baseline is not None:
        speedups = {}
        for name, entry in results.items():
            base = baseline.get("ops", {}).get(name)
            if base:
                speedups[name] = round(base["median_s"] / entry["median_s"], 3)
        out["speedup_vs_baseline"] = {
            "baseline_dtype": baseline.get("meta", {}).get("dtype"),
            "ops": speedups,
        }
        for name, factor in speedups.items():
            print(f"{name:>24}: {factor:5.2f}x vs baseline")

    with open(args.output, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    runtime_out = {"meta": out["meta"], **runtime_report(args.quick, args.profile)}
    with open(args.runtime_output, "w") as fh:
        json.dump(runtime_out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.runtime_output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
