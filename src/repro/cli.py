"""Command-line interface for running experiments.

Usage::

    python -m repro.cli fig2a --rounds 20 --train-per-class 12
    python -m repro.cli fig2b --rounds 26 --target 0.75
    python -m repro.cli run --scheme GSFL --rounds 10 --groups 6
    python -m repro.cli run --scheme GSFL --medium contended --heterogeneity 0.8
    python -m repro.cli run --scheme FL --participation 0.5 --straggler-rate 0.2
    python -m repro.cli run --scheme GSFL --rounds 3 --trace-out trace.jsonl
    python -m repro.cli run --scheme GSFL --churn-uptime 0.5 --churn-downtime 0.1 \\
        --failure-model mid-activity --max-retries 2
    python -m repro.cli run --scheme GSFL --grouping compute_balanced
    python -m repro.cli run --scheme GSFL --churn-uptime 0.15 --churn-downtime 0.05 \\
        --failure-model mid-activity --regroup availability_aware --regroup-every 1
    python -m repro.cli scenarios
    python -m repro.cli scenarios diurnal
    python -m repro.cli run --scenario cell-outage --scheme GSFL --rounds 5
    python -m repro.cli run --scenario churn --scheme GSFL --trace-out trace.jsonl
    python -m repro.cli run --scenario replay:trace.jsonl --scheme GSFL
    python -m repro.cli cuts
    python -m repro.cli info

Every subcommand prints plain-text tables (no plotting dependencies); the
same harness functions back the benchmark suite, so CLI runs and bench
runs are directly comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.grouping import GROUPING_STRATEGIES
from repro.core.regroup import REGROUP_POLICIES
from repro.experiments.catalog import describe_scenario, get_scenario, list_scenarios
from repro.experiments.dynamics import FAILURE_MODELS, DynamicsConfig
from repro.experiments.figures import run_fig2a, run_fig2b
from repro.experiments.runner import SCHEME_REGISTRY, make_scheme
from repro.devtools.trace_schema import validate_row
from repro.experiments.scenario import ExperimentScenario, fast_scenario, paper_scenario
from repro.nn.dtype import set_default_dtype
from repro.schemes.base import MEDIUM_POLICIES
from repro.sim.server import parse_aggregation

__all__ = ["main", "build_parser"]

#: ``run`` flags (argparse dests) only GSFL consumes
GSFL_ONLY_FLAGS = ("groups", "grouping", "regroup", "regroup_every", "failure_rate")


def _aggregation_spec(value: str) -> str:
    """argparse type-validator for ``--aggregation`` (keeps the raw spec)."""
    try:
        parse_aggregation(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GSFL reproduction experiments (ICDCS 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="scenario seed")
    common.add_argument(
        "--scale",
        choices=("fast", "paper"),
        default="paper",
        help="scenario preset (fast: 6 clients/10 classes; paper: 30/43)",
    )
    common.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="catalog scenario (takes precedence over --scale): a name "
        "from `repro.cli scenarios`, or replay:<trace.jsonl> to re-drive "
        "availability from a recorded --trace-out file",
    )
    common.add_argument(
        "--train-per-class", type=int, default=None,
        help="override training samples per class",
    )
    common.add_argument(
        "--dtype",
        choices=("float32", "float64"),
        default="float32",
        help="compute dtype for models and training (float32 is the "
        "fast default; float64 reproduces legacy double-precision runs)",
    )
    common.add_argument(
        "--medium",
        choices=MEDIUM_POLICIES,
        default="static",
        help="wireless medium share policy: 'static' resolves every "
        "transmission at its nominal subchannel, 'contended' re-allocates "
        "bandwidth among instantaneously active transmitters",
    )
    common.add_argument(
        "--heterogeneity", type=float, default=None,
        help="log-normal sigma of the client compute-speed spread "
        "(0 = identical devices)",
    )

    p2a = sub.add_parser("fig2a", parents=[common], help="accuracy vs rounds (Fig 2a)")
    p2a.add_argument("--rounds", type=int, default=20)
    p2a.add_argument("--target", type=float, default=0.6)

    p2b = sub.add_parser("fig2b", parents=[common], help="accuracy vs latency (Fig 2b)")
    p2b.add_argument("--rounds", type=int, default=26)
    p2b.add_argument("--target", type=float, default=0.75)

    prun = sub.add_parser("run", parents=[common], help="run one scheme")
    prun.add_argument("--scheme", choices=sorted(SCHEME_REGISTRY), default="GSFL")
    prun.add_argument("--rounds", type=int, default=10)
    prun.add_argument("--groups", type=int, default=None, help="GSFL group count")
    prun.add_argument(
        "--grouping", choices=GROUPING_STRATEGIES, default=None,
        help="GSFL client-partition strategy: 'contiguous' (default) splits "
        "0..N-1 into consecutive runs, 'random' shuffles per seed, "
        "'compute_balanced' evens summed compute time per group, "
        "'channel_aware' evens summed per-bit airtime per group",
    )
    prun.add_argument(
        "--regroup", choices=REGROUP_POLICIES, default=None,
        help="between-round re-partitioning: 'static' (default) freezes the "
        "construction-time groups, 'availability_aware' re-deals by expected "
        "remaining up-time from the churn trace (short-lived clients to the "
        "relay-chain tails), 'abort_history' routes chains around clients "
        "with a flaky abort/retry record (EWMA over the fault telemetry)",
    )
    prun.add_argument(
        "--regroup-every", type=int, default=None, metavar="N",
        help="re-partition every N rounds (with --regroup; default 1)",
    )
    prun.add_argument("--cut-layer", type=int, default=None)
    prun.add_argument(
        "--transport", default=None, metavar="CODEC",
        help="wire codec for model/smashed/gradient payloads: 'float32' "
        "(identity, default), 'int8', 'intk:K' (K-bit uniform-affine), or "
        "'topk:F' (keep the top F fraction of entries by magnitude); "
        "encode/decode compute is priced on the owning device and wire "
        "bytes shrink to what the codec actually ships",
    )
    prun.add_argument(
        "--failure-rate", type=float, default=None,
        help="GSFL: per-round probability that a client is unavailable, "
        "in [0, 1] (default 0)",
    )
    prun.add_argument(
        "--participation", type=float, default=1.0,
        help="fraction of available clients sampled each round",
    )
    prun.add_argument(
        "--straggler-rate", type=float, default=0.0,
        help="per-round probability a participating client straggles",
    )
    prun.add_argument(
        "--straggler-slowdown", type=float, default=4.0,
        help="multiplicative compute slowdown of a straggler",
    )
    prun.add_argument(
        "--churn-uptime", type=float, default=None,
        help="mean client up-window in seconds (enables availability churn; "
        "requires --churn-downtime)",
    )
    prun.add_argument(
        "--churn-downtime", type=float, default=None,
        help="mean client down-window in seconds",
    )
    prun.add_argument(
        "--failure-model", choices=FAILURE_MODELS, default="round",
        help="granularity at which churn bites: 'none' ignores churn "
        "entirely, 'round' (default) resolves it at round boundaries, "
        "'mid-activity' preempts in-flight transfers/compute the instant "
        "a client's up-window closes (protocol-level retry/reroute/"
        "surrender recovery applies)",
    )
    prun.add_argument(
        "--max-retries", type=int, default=2,
        help="per-round retry budget after a mid-activity preemption "
        "(exhausted budget reroutes the relay chain or surrenders the round)",
    )
    prun.add_argument(
        "--aggregation", type=_aggregation_spec, default="sync",
        metavar="{sync,async,bounded:K}",
        help="server aggregation mode: 'sync' is the paper's per-round "
        "barrier, 'async' FedAsync-style barrier-free merging with "
        "polynomial staleness decay, 'bounded:K' barrier-free with an "
        "SSP-style max-lag gate (bounded:0 == sync)",
    )
    prun.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the full per-activity trace plus per-client energy "
        "summary (and per-update staleness under async aggregation) as JSONL",
    )

    pscen = sub.add_parser(
        "scenarios", parents=[common],
        help="list the scenario catalog (or describe one world)",
    )
    pscen.add_argument(
        "name", nargs="?", default=None,
        help="scenario to describe (omit to list the whole catalog)",
    )

    sub.add_parser("cuts", parents=[common], help="cut-layer latency sweep")
    sub.add_parser("info", parents=[common], help="print the scenario summary")
    return parser


def _check_seed(args: argparse.Namespace) -> None:
    """Reject a negative ``--seed`` (numpy's seeding would trace back)."""
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")


def _scenario(args: argparse.Namespace) -> ExperimentScenario:
    from dataclasses import replace

    _check_seed(args)

    if getattr(args, "scenario", None):
        scenario = get_scenario(args.scenario, seed=args.seed)
    elif args.scale == "fast":
        scenario = fast_scenario(with_wireless=True, seed=args.seed)
    else:
        scenario = paper_scenario(with_wireless=True, seed=args.seed)
    if args.train_per_class is not None:
        dataset = scenario.dataset = replace(scenario.dataset, train_per_class=args.train_per_class)
        # The build renders the whole training split at once, in float64.
        render = int(dataset.class_counts(args.train_per_class).sum()) * 24 * dataset.image_size**2
        if render > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ValueError(
                f"--train-per-class {args.train_per_class} renders a {render / 2**30:.1f} GiB "
                "float64 training split, more than this machine's physical memory"
            )
    if args.medium != "static":
        scenario.scheme = replace(scenario.scheme, medium=args.medium)
    if args.heterogeneity is not None and scenario.wireless is not None:
        scenario.wireless = replace(scenario.wireless, heterogeneity=args.heterogeneity)
    return scenario


def _dynamics_config(args: argparse.Namespace) -> DynamicsConfig | None:
    """Build a DynamicsConfig from `run` flags; None when all defaults.

    Any flag that deviates from its default reaches DynamicsConfig so its
    validation fires (out-of-range participation, partial churn windows)
    instead of being silently dropped.
    """
    if (
        args.participation == 1.0
        and args.straggler_rate == 0.0
        and args.straggler_slowdown == 4.0
        and args.churn_uptime is None
        and args.churn_downtime is None
        and args.failure_model == "round"
        and args.max_retries == 2
    ):
        return None
    return DynamicsConfig(
        participation=args.participation,
        churn_uptime_s=args.churn_uptime,
        churn_downtime_s=args.churn_downtime,
        straggler_rate=args.straggler_rate,
        straggler_slowdown=args.straggler_slowdown,
        failure_model=args.failure_model,
        max_retries=args.max_retries,
        seed=args.seed,
    )


def _export_trace(path: str, scheme: "object", scenario_name: "str | None" = None) -> None:
    """Write the run's per-activity trace + energy summary as JSONL.

    The export doubles as a trace-*in* format: the ``meta`` row carries
    the full dynamics config (and scenario name/seed), and per-client
    ``availability`` rows record the realized churn toggle streams, so
    ``--scenario replay:<path>`` can re-drive the same fleet history.
    """
    from dataclasses import asdict

    from repro.wireless.energy import EnergyModel, EnergyReport

    recorder = scheme.recorder
    dynamics = scheme.dynamics
    total_span = scheme.runtime.now
    energy = EnergyModel()
    with open(path, "w") as fh:
        def write(row: "dict[str, object]") -> None:
            fh.write(json.dumps(row) + "\n")

        def emit(row: "dict[str, object]") -> None:
            # Every exported row must match the canonical schema registry
            # (repro.devtools.trace_schema) — the runtime half of TRC001.
            validate_row(row)
            write(row)

        emit(
            {
                "type": "meta",
                "scheme": scheme.name,
                "scenario": scenario_name,
                "seed": scheme.config.seed,
                "rounds": len(scheme.round_timings),
                "medium": scheme.config.medium,
                "transport": scheme.config.transport,
                "aggregation": scheme.config.aggregation,
                "failure_model": getattr(scheme, "failure_model", "none"),
                "grouping": getattr(scheme, "grouping", None),
                "regroup": scheme.config.regroup,
                "regroup_every": scheme.config.regroup_every,
                "num_clients": scheme.num_clients,
                "num_groups": getattr(scheme, "num_groups", None),
                "dynamics": asdict(dynamics.config) if dynamics is not None else None,
                "total_latency_s": total_span,
                "events": len(recorder),
                "aborts": len(recorder.aborts),
                "retries": len(recorder.retries),
                "regroups": len(recorder.regroups),
            }
        )
        if dynamics is not None and dynamics.config.has_churn:
            for c in range(dynamics.num_clients):
                emit(
                    {
                        "type": "availability",
                        "client": c,
                        "toggles": dynamics.availability_toggles(c, total_span),
                    }
                )
        if dynamics is not None:
            for rc in dynamics.round_log:
                emit(
                    {
                        "type": "round_conditions",
                        "round": rc.round_index,
                        "time_s": rc.now_s,
                        "available": list(rc.available),
                        "participants": list(rc.participants),
                        "slowdowns": {str(k): v for k, v in rc.slowdowns.items()},
                    }
                )
        # The recorder's renderers validate each row as they yield it.
        for rows in (recorder.to_rows(), recorder.abort_rows(),
                     recorder.retry_rows(), recorder.regroup_rows()):
            for row in rows:
                write(row)
        for t in scheme.round_timings:
            emit(
                {
                    "type": "round_timing",
                    "round": t.round_index,
                    "des_s": t.des_s,
                    "analytic_s": t.analytic_s,
                    "lower_bound_s": t.lower_bound_s,
                }
            )
        for u in scheme.aggregation_updates:
            emit(
                {
                    "type": "aggregation_update",
                    "unit": u.unit,
                    "unit_round": u.round_index,
                    "time_s": u.time_s,
                    "staleness": u.staleness,
                    "alpha": u.alpha,
                    "weight": u.weight,
                }
            )
        reports = energy.per_client_energy(recorder, total_span)
        fleet = sum(reports.values(), EnergyReport.zero())
        for actor, report in sorted(reports.items()):
            emit(
                {
                    "type": "energy",
                    "actor": actor,
                    "tx_j": report.tx_j,
                    "rx_j": report.rx_j,
                    "compute_j": report.compute_j,
                    "idle_j": report.idle_j,
                    "total_j": report.total_j,
                }
            )
        emit(
            {
                "type": "energy_summary",
                "tx_j": fleet.tx_j,
                "rx_j": fleet.rx_j,
                "compute_j": fleet.compute_j,
                "idle_j": fleet.idle_j,
                "total_j": fleet.total_j,
            }
        )
    print(f"wrote trace: {path}")


def _check_experiment_flags(args: argparse.Namespace) -> None:
    """Reject an out-of-range ``--rounds`` or ``--target`` before any work."""
    if args.rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {args.rounds}")
    target = getattr(args, "target", None)
    if target is not None and not 0.0 < target <= 1.0:
        raise ValueError(f"--target must be an accuracy in (0, 1], got {target}")


def _config_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_fig2a(args: argparse.Namespace) -> int:
    try:
        _check_experiment_flags(args)
        scenario = _scenario(args)
    except ValueError as exc:
        return _config_error(exc)
    scenario.wireless = None  # accuracy axis only
    result = run_fig2a(scenario, num_rounds=args.rounds,
                       target_accuracy=args.target, verbose=True)
    print()
    print(result.table)
    speedup = result.gsfl_over_fl_speedup
    print(f"\nGSFL-over-FL speedup @ {args.target:.0%}: "
          f"{'unreached' if speedup is None else f'{speedup:.1f}x'} (paper ~5x)")
    return 0


def _cmd_fig2b(args: argparse.Namespace) -> int:
    try:
        _check_experiment_flags(args)
        scenario = _scenario(args)
    except ValueError as exc:
        return _config_error(exc)
    result = run_fig2b(scenario, num_rounds=args.rounds,
                       target_accuracy=args.target, verbose=True)
    print()
    print(result.table)
    reduction = result.delay_reduction
    print(f"\nGSFL delay reduction vs SL @ {args.target:.0%}: "
          f"{'unreached' if reduction is None else f'{reduction:.1%}'} (paper ~31.45%)")
    return 0


def _check_trace_out(path: str) -> None:
    """Reject a ``--trace-out`` path the export could not write, before
    any training: the trace is written only after the last round."""
    if os.path.isdir(path):
        raise ValueError(f"--trace-out {path!r} is a directory, not a file path")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValueError(f"--trace-out directory {parent!r} does not exist")


def _cmd_run(args: argparse.Namespace) -> int:
    # Configuration phase: ValueErrors raised while assembling the
    # scenario, dynamics and scheme are user errors (bad flag combinations
    # such as --churn-uptime 0) and exit cleanly; anything raised later,
    # during the actual run, is a real bug and must keep its traceback.
    try:
        _check_experiment_flags(args)
        if args.trace_out:
            _check_trace_out(args.trace_out)
        given = [dest for dest in GSFL_ONLY_FLAGS if getattr(args, dest) is not None]
        if given and args.scheme != "GSFL":
            flags = " ".join("--" + dest.replace("_", "-") for dest in given)
            raise ValueError(f"GSFL-only flag(s) {flags} given with --scheme {args.scheme}")
        scenario = _scenario(args)
        if args.cut_layer is not None:
            depth = len(scenario.make_model())
            if not 1 <= args.cut_layer <= depth - 1:
                raise ValueError(
                    f"--cut-layer must be between 1 and {depth - 1} for the "
                    f"{depth}-layer {scenario.model_name} model, got {args.cut_layer}"
                )
            scenario.cut_layer = args.cut_layer
        if args.groups is not None:
            if not 1 <= args.groups <= scenario.num_clients:
                raise ValueError(
                    f"--groups must be between 1 and the scenario's "
                    f"{scenario.num_clients} clients, got {args.groups}"
                )
            scenario.num_groups = args.groups
        if (
            not SCHEME_REGISTRY[args.scheme].supports_async
            and not parse_aggregation(args.aggregation).synchronous
        ):
            raise ValueError(
                f"scheme {args.scheme!r} does not support "
                f"--aggregation {args.aggregation} (only the sync barrier: "
                f"'sync' or 'bounded:0')"
            )
        if args.grouping is not None:
            scenario.grouping = args.grouping
        overrides = {
            field: getattr(args, field)
            for field in ("transport", "regroup", "regroup_every")
            if getattr(args, field) is not None
        }
        if args.aggregation != "sync":
            overrides["aggregation"] = args.aggregation
        if overrides:
            from dataclasses import replace

            scenario.scheme = replace(scenario.scheme, **overrides)
        # Explicit dynamics flags override the scenario; all-default
        # flags leave a catalog world's own dynamics in place.
        dynamics = _dynamics_config(args)
        if dynamics is not None:
            scenario.dynamics = dynamics
        # The scheme validates its own arguments (a failure rate outside
        # [0, 1], regrouping without a barrier) as it is constructed.
        scheme_kwargs = (
            {} if args.failure_rate is None else {"failure_rate": args.failure_rate}
        )
        scheme = make_scheme(args.scheme, scenario.build(), **scheme_kwargs)
    except ValueError as exc:
        return _config_error(exc)
    history = scheme.run(args.rounds)
    print(f"{'round':>6} {'latency_s':>10} {'loss':>8} {'accuracy':>9}")
    for p in history.points:
        print(f"{p.round_index:>6} {p.latency_s:>10.2f} {p.train_loss:>8.3f} "
              f"{p.test_accuracy:>9.3f}")
    print()
    print(history.summary())
    if args.trace_out:
        try:
            _export_trace(args.trace_out, scheme, scenario_name=args.scenario or args.scale)
        except OSError as exc:
            print(f"error: cannot write --trace-out {args.trace_out}: {exc}", file=sys.stderr)
            return 1
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.name:
        try:
            _check_seed(args)
            print(describe_scenario(args.name, seed=args.seed))
        except ValueError as exc:
            return _config_error(exc)
        return 0
    entries = list_scenarios()
    width = max(len(e.name) for e in entries)
    print(f"{'name':<{width}}  {'tags':<26} summary")
    for e in entries:
        print(f"{e.name:<{width}}  {', '.join(e.tags):<26} {e.summary}")
    print(f"\nreplay:<trace.jsonl>  re-drive availability from a recorded "
          f"--trace-out file")
    return 0


def _cmd_cuts(args: argparse.Namespace) -> int:
    from repro.core.cut_layer import best_cut

    try:
        scenario = _scenario(args)
        built = scenario.build()
    except ValueError as exc:
        return _config_error(exc)
    best, sweep = best_cut(
        built.profile,
        built.system,
        batch_size=scenario.scheme.batch_size,
        local_steps=scenario.scheme.local_steps,
        bandwidth_hz=built.system.allocator.total_bandwidth_hz / scenario.num_groups,
    )
    print(f"{'cut':>4} {'latency (ms)':>13}")
    for cut, latency in sweep:
        print(f"{cut:>4} {latency * 1e3:>13.2f}{'   <- best' if cut == best else ''}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario(args)
        built = scenario.build()
    except ValueError as exc:
        return _config_error(exc)
    print(f"scheme presets : N={scenario.num_clients}, M={scenario.num_groups}, "
          f"model={scenario.model_name}, cut={scenario.resolved_cut_layer()}")
    print(f"dataset        : {scenario.dataset.num_classes} classes, "
          f"{sum(len(d) for d in built.client_datasets)} train / "
          f"{len(built.test_dataset)} test samples, "
          f"{scenario.dataset.image_size}x{scenario.dataset.image_size}")
    if built.profile is not None:
        print()
        print(built.profile.summary())
    return 0


_COMMANDS = {
    "fig2a": _cmd_fig2a,
    "fig2b": _cmd_fig2b,
    "run": _cmd_run,
    "scenarios": _cmd_scenarios,
    "cuts": _cmd_cuts,
    "info": _cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    # Dtype must be pinned before any model/scenario construction; restore
    # afterwards so in-process callers (tests) see no global side effect.
    previous = set_default_dtype(args.dtype)
    try:
        return _COMMANDS[args.command](args)
    finally:
        set_default_dtype(previous)


if __name__ == "__main__":
    sys.exit(main())
