"""Simulated-runtime tracker: the event-driven scenarios → ``BENCH_runtime.json``.

Runs the fast preset through the discrete-event runtime and records what
the simulation answers — DES latency, accuracy, wire bytes, staleness,
aborts and retries — per section: static vs contended medium on
homogeneous and heterogeneous fleets (``scenarios``), sync vs
barrier-free aggregation under stragglers (``async``), churn on/off
(``failures``), regroup policies (``grouping``), wire codecs
(``transport``) and one row per catalog world plus a record→replay round
trip (``catalog``)::

    PYTHONPATH=src python benchmarks/run_bench.py           # rewrites BENCH_runtime.json
    PYTHONPATH=src python benchmarks/run_bench.py --quick   # CI smoke: fewer rounds

Nothing here is a host time.  Host wall-clock and memory are measured end
to end by ``benchmarks/e2e/run.py`` (``BENCHMARK.json``) and recorded in
``BENCH_e2e.json``.
"""

from __future__ import annotations

import argparse
import json
import platform

import numpy as np

from repro.nn.dtype import get_default_dtype


def runtime_report(quick: bool) -> dict:
    """Event-driven runtime scenarios → the BENCH_runtime.json payload.

    Measures the contention-aware medium against the static-subchannel
    model: with homogeneous devices the group pipelines stay in near
    lockstep and the two agree closely; with a heterogeneous fleet the
    pipelines drift, idle subchannels get re-allocated, and the
    DES-resolved latency measurably diverges from the static analytic
    numbers.
    """
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
        return scheme, scheme.run(rounds)

    for het in (0.0, 1.0):
        static_scheme, static_hist = run("static", het)
        _, cont_hist = run("contended", het)
        static_lat = static_hist.total_latency_s
        cont_lat = cont_hist.total_latency_s
        report["scenarios"][f"heterogeneity_{het:g}"] = {
            "static_latency_s": static_lat,
            "contended_latency_s": cont_lat,
            "divergence": cont_lat / static_lat - 1.0,
            "analytic_latency_s": sum(t.analytic_s for t in static_scheme.round_timings),
            "lower_bound_s": sum(t.lower_bound_s for t in static_scheme.round_timings),
        }
        label = f"gsfl het={het:g}"
        print(f"{label:>24}: static {static_lat:8.3f} s | contended {cont_lat:8.3f} s "
              f"({(cont_lat / static_lat - 1.0) * 100:+.2f}%)")
    report["async"] = async_round_latency_report(quick)
    report["failures"] = failure_model_report(quick)
    report["grouping"] = grouping_report(quick)
    report["transport"] = transport_report(quick)
    report["catalog"] = catalog_report(quick)
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

    from repro.experiments.catalog import export_trace, get_scenario, list_scenarios
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
        export_trace(path, recorded, scenario_name="churn")
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--runtime-output", default="BENCH_runtime.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer rounds per section (CI smoke step)",
    )
    args = parser.parse_args(argv)

    out = {
        "meta": {
            "dtype": str(get_default_dtype()),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        **runtime_report(args.quick),
    }
    with open(args.runtime_output, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.runtime_output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
