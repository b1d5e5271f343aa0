"""Command-line interface for running experiments.

Usage::

    python -m repro.cli figures --rounds 26 --target 0.75
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
    python -m repro.cli run --scenario churn --participation 0.5
    python -m repro.cli run --scenario replay:trace.jsonl --scheme GSFL
    python -m repro.cli cuts
    python -m repro.cli info

Every flag is one row of :data:`FLAGS` (see :class:`Flag`): the parser,
the check that a flag suits ``--scheme`` and the step that applies the
typed flags to the world's own configs all read that one table.  A
config-backed flag has no default, so it overrides exactly the field the
user typed, and a value the config rejects prints as
``error: --flag VALUE: <the config's message>``.

Every subcommand prints plain-text tables (no plotting dependencies); the
same harness functions back the benchmark suite, so CLI runs and bench
runs are directly comparable.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.grouping import GROUPING_STRATEGIES
from repro.core.regroup import REGROUP_POLICIES
from repro.data.gtsrb import SyntheticGTSRB
from repro.experiments.catalog import describe_scenario, export_trace, get_scenario, list_scenarios
from repro.experiments.dynamics import FAILURE_MODELS, DynamicsConfig
from repro.experiments.figures import run_fig2a, run_fig2b
from repro.experiments.runner import SCHEME_REGISTRY, best_cut, make_scheme
from repro.experiments.scenario import ExperimentScenario, fast_scenario, paper_scenario
from repro.nn.dtype import set_default_dtype
from repro.schemes.base import MEDIUM_POLICIES
from repro.sim.server import parse_aggregation
from repro.utils.validation import check_probability

__all__ = ["FLAGS", "Flag", "main", "build_parser"]


@dataclass(frozen=True)
class Flag:
    """One command-line flag: a row of :data:`FLAGS`.

    ``field`` is ``"<config>.<name>"``: ``scenario`` itself or its
    ``dataset``, ``wireless``, ``scheme`` or ``dynamics`` config, and the
    field the flag overrides.  ``None`` marks a run argument, the only
    kind with a ``default`` (a ``{command: default}`` map where the
    commands differ).  A flag belongs to its ``commands`` only; empty
    ``schemes`` mean every scheme.
    """

    flag: str
    field: str | None = None
    commands: Sequence[str] = ()
    schemes: Sequence[str] = ()
    type: Callable[[str], object] | None = None
    choices: Sequence[str] | None = None
    metavar: str | None = None
    default: object = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _aggregation_spec(value: str) -> str:
    """argparse type-validator for ``--aggregation`` (keeps the raw spec)."""
    try:
        parse_aggregation(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


#: a token argparse must read as a value, not an option: its own test
#: passes only ``-1`` and ``-.5``, so ``--heterogeneity -inf`` (or ``-nan``,
#: ``-1e308``) would end as "expected one argument"
_NEGATIVE_NUMBER = re.compile(r"^-(\.?\d|inf(inity)?$|nan$)", re.IGNORECASE)

_RUN = ("run",)
_GSFL = ("GSFL",)
_SPLIT = ("SL", "SplitFed", "PSL", "GSFL")
#: the commands that build a scenario (``scenarios`` only lists or describes)
_BUILDING = ("figures", "run", "cuts", "info")

#: every flag of every command, in ``--help`` order
FLAGS = (
    Flag("--seed", commands=(*_BUILDING, "scenarios"), type=int, default=0,
         help="scenario seed"),
    Flag("--scale", commands=_BUILDING, choices=("fast", "paper"), default="paper",
         help="scenario preset (fast: 6 clients/10 classes; paper: 30/43)"),
    Flag("--scenario", commands=_BUILDING, metavar="NAME",
         help="catalog scenario (takes precedence over --scale): a name "
         "from `repro.cli scenarios`, or replay:<trace.jsonl> to re-drive "
         "availability from a recorded --trace-out file"),
    Flag("--train-per-class", "dataset.train_per_class", _BUILDING, type=int,
         help="override training samples per class"),
    Flag("--dtype", commands=_BUILDING, choices=("float32", "float64"), default="float32",
         help="compute dtype for models and training (float32 is the "
         "fast default; float64 reproduces legacy double-precision runs)"),
    Flag("--medium", "scheme.medium", _BUILDING, choices=MEDIUM_POLICIES,
         help="wireless medium share policy: 'static' resolves every "
         "transmission at its nominal subchannel, 'contended' re-allocates "
         "bandwidth among instantaneously active transmitters"),
    Flag("--heterogeneity", "wireless.heterogeneity", _BUILDING, type=float,
         help="log-normal sigma of the client compute-speed spread "
         "(0 = identical devices)"),
    Flag("--scheme", commands=_RUN, choices=sorted(SCHEME_REGISTRY), default="GSFL"),
    Flag("--rounds", commands=("figures", "run"), type=int,
         default={"figures": 26, "run": 10}),
    Flag("--target", commands=("figures",), type=float, default=0.6),
    Flag("--groups", "scenario.num_groups", _RUN, _GSFL, type=int, help="GSFL group count"),
    Flag("--grouping", "scenario.grouping", _RUN, _GSFL, choices=GROUPING_STRATEGIES,
         help="GSFL client-partition strategy: 'contiguous' (default) splits "
         "0..N-1 into consecutive runs, 'random' shuffles per seed, "
         "'compute_balanced' evens summed compute time per group, "
         "'channel_aware' evens summed per-bit airtime per group"),
    Flag("--regroup", "scheme.regroup", _RUN, _GSFL, choices=REGROUP_POLICIES,
         help="between-round re-partitioning: 'static' (default) freezes the "
         "construction-time groups, 'availability_aware' re-deals by expected "
         "remaining up-time from the churn trace (short-lived clients to the "
         "relay-chain tails), 'abort_history' routes chains around clients "
         "with a flaky abort/retry record (EWMA over the fault telemetry)"),
    Flag("--regroup-every", "scheme.regroup_every", _RUN, _GSFL, type=int, metavar="N",
         help="re-partition every N rounds (with --regroup; default 1)"),
    Flag("--cut-layer", "scenario.cut_layer", _RUN, _SPLIT, type=int),
    Flag("--transport", "scheme.transport", _RUN, ("FL", *_SPLIT), metavar="CODEC",
         help="wire codec for model/smashed/gradient payloads: 'float32' "
         "(identity, default), 'int8', 'intk:K' (K-bit uniform-affine), or "
         "'topk:F' (keep the top F fraction of entries by magnitude); "
         "encode/decode compute is priced on the owning device and wire "
         "bytes shrink to what the codec actually ships"),
    # A GSFL constructor argument: checked before the build by the
    # scheme's own validator.
    Flag("--failure-rate", None, _RUN, _GSFL, type=float,
         help="GSFL: per-round probability that a client is unavailable, "
         "in [0, 1] (default 0)"),
    Flag("--participation", "dynamics.participation", _RUN, type=float,
         help="fraction of available clients sampled each round"),
    Flag("--straggler-rate", "dynamics.straggler_rate", _RUN, type=float,
         help="per-round probability a participating client straggles"),
    Flag("--straggler-slowdown", "dynamics.straggler_slowdown", _RUN, type=float,
         help="multiplicative compute slowdown of a straggler"),
    Flag("--churn-uptime", "dynamics.churn_uptime_s", _RUN, type=float,
         help="mean client up-window in seconds (enables availability churn; "
         "requires --churn-downtime)"),
    Flag("--churn-downtime", "dynamics.churn_downtime_s", _RUN, type=float,
         help="mean client down-window in seconds"),
    Flag("--failure-model", "dynamics.failure_model", _RUN, choices=FAILURE_MODELS,
         help="granularity at which churn bites: 'none' ignores churn "
         "entirely, 'round' (default) resolves it at round boundaries, "
         "'mid-activity' preempts in-flight transfers/compute the instant "
         "a client's up-window closes (protocol-level retry/reroute/"
         "surrender recovery applies)"),
    Flag("--max-retries", "dynamics.max_retries", _RUN, type=int,
         help="per-round retry budget after a mid-activity preemption "
         "(exhausted budget reroutes the relay chain or surrenders the round)"),
    Flag("--aggregation", "scheme.aggregation", _RUN, type=_aggregation_spec,
         metavar="{sync,async,bounded:K}",
         help="server aggregation mode: 'sync' is the paper's per-round "
         "barrier, 'async' FedAsync-style barrier-free merging with "
         "polynomial staleness decay, 'bounded:K' barrier-free with an "
         "SSP-style max-lag gate (bounded:0 == sync)"),
    Flag("--trace-out", commands=_RUN, metavar="PATH",
         help="write the full per-activity trace plus per-client energy "
         "summary (and per-update staleness under async aggregation) as JSONL"),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser from :data:`FLAGS` (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GSFL reproduction experiments (ICDCS 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in COMMANDS.items():
        cmd = sub.add_parser(command, help=summary)
        cmd._negative_number_matcher = _NEGATIVE_NUMBER
        for row in FLAGS:
            if command in row.commands:
                default = row.default.get(command) if isinstance(row.default, dict) else row.default
                kwargs = {"type": row.type, "choices": row.choices, "metavar": row.metavar,
                          "default": default, "help": row.help}
                cmd.add_argument(row.flag, **{k: v for k, v in kwargs.items() if v is not None})
    sub.choices["scenarios"].add_argument(
        "name", nargs="?", default=None,
        help="scenario to describe (omit to list the whole catalog)",
    )
    return parser


def _check_arguments(args: argparse.Namespace) -> None:
    """Reject a run argument no config holds, before any work: a negative
    ``--seed`` (numpy's seeding would trace back), ``--rounds`` below 1,
    a ``--target`` outside (0, 1] and a ``--trace-out`` path the export
    could not write (the trace is written only after the last round)."""
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    rounds = getattr(args, "rounds", None)
    if rounds is not None and rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {rounds}")
    target = getattr(args, "target", None)
    if target is not None and not 0.0 < target <= 1.0:
        raise ValueError(f"--target must be an accuracy in (0, 1], got {target}")
    path = getattr(args, "trace_out", None)
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            raise ValueError(f"--trace-out {path!r} is a directory, not a file path")
        if not os.path.isdir(parent):
            raise ValueError(f"--trace-out directory {parent!r} does not exist")


@contextmanager
def _naming(args: argparse.Namespace, rows: Iterable[Flag]) -> Iterator[None]:
    """Prefix a ValueError raised inside with the typed flags that fed it
    (none typed: the message stands alone)."""
    try:
        yield
    except ValueError as exc:
        typed = " ".join(f"{row.flag} {getattr(args, row.dest)}" for row in rows)
        if typed:
            raise ValueError(f"{typed}: {exc}") from None
        raise


def _scenario(args: argparse.Namespace) -> ExperimentScenario:
    """The configuration phase: check the run arguments, then make the
    world's scenario with every typed flag applied.  Nothing is built.

    Each config the flags touch takes them in one ``replace`` of the
    world's own config, so its validation fires there.  A world without
    dynamics starts from ``DynamicsConfig(seed=--seed)`` and keeps none
    when the flags only restate that static fleet.
    """
    _check_arguments(args)
    # A flag this command does not take has no attribute on ``args``.
    typed = [row for row in FLAGS
             if row.default is None and getattr(args, row.dest, None) is not None]
    misfits = [row for row in typed if row.schemes and args.scheme not in row.schemes]
    if misfits:
        schemes = "/".join(sorted({scheme for row in misfits for scheme in row.schemes}))
        flags = " ".join(row.flag for row in misfits)
        raise ValueError(f"{schemes}-only flag(s) {flags} given with --scheme {args.scheme}")
    for row in typed:
        if row.flag == "--failure-rate":
            with _naming(args, [row]):
                check_probability("failure_rate", args.failure_rate)

    if args.scenario:
        with _naming(args, [row for row in typed if row.flag == "--scenario"]):
            scenario = get_scenario(args.scenario, seed=args.seed)
    elif args.scale == "fast":
        scenario = fast_scenario(with_wireless=True, seed=args.seed)
    else:
        scenario = paper_scenario(with_wireless=True, seed=args.seed)

    by_config: dict[str, dict[str, Flag]] = {}
    for row in typed:
        if row.field is not None:
            config, name = row.field.split(".")
            by_config.setdefault(config, {})[name] = row
    static = DynamicsConfig(seed=args.seed)
    changes: dict[str, object] = {}
    for config, rows in by_config.items():
        values = {name: getattr(args, row.dest) for name, row in rows.items()}
        if config == "scenario":
            changes.update(values)  # the scenario's own fields, replaced last
            continue
        base = (scenario.dynamics or static) if config == "dynamics" else getattr(scenario, config)
        with _naming(args, rows.values()):
            changes[config] = replace(base, **values)
    if scenario.dynamics is None and changes.get("dynamics") == static:
        changes["dynamics"] = None
    with _naming(args, by_config.get("scenario", {}).values()):
        scenario = replace(scenario, **changes)

    if args.train_per_class is not None:
        # The build holds the float64 render, its scratch and the stored
        # split at once: refuse one that cannot fit before it starts.
        try:
            peak = SyntheticGTSRB(scenario.dataset).peak_bytes()
        except OverflowError:  # a class count past int64
            peak = float("inf")
        if peak > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ValueError(
                f"--train-per-class {args.train_per_class} needs {peak / 2**30:.1f} GiB "
                "to build its training split, more than this machine's physical memory"
            )
    return scenario


def _config_error(exc: ValueError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _cmd_figures(args: argparse.Namespace) -> int:
    try:
        scenario = _scenario(args)
    except ValueError as exc:
        return _config_error(exc)
    fig2a = run_fig2a(scenario, num_rounds=args.rounds, target_accuracy=args.target,
                      verbose=True)
    fig2b = run_fig2b(fig2a, args.target)
    speedup, reduction = fig2a.gsfl_over_fl_speedup, fig2b.delay_reduction
    print(f"\n{fig2a.table}\n\nGSFL-over-FL speedup @ {args.target:.0%}: "
          f"{'unreached' if speedup is None else f'{speedup:.1f}x'} (paper ~5x)")
    print(f"\n{fig2b.table}\n\nGSFL delay reduction vs SL @ {args.target:.0%}: "
          f"{'unreached' if reduction is None else f'{reduction:.1%}'} (paper ~31.45%)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    # Configuration phase: ValueErrors raised while assembling the
    # scenario, dynamics and scheme are user errors (bad flag combinations
    # such as --churn-uptime 0) and exit cleanly; anything raised later,
    # during the actual run, is a real bug and must keep its traceback.
    try:
        scenario = _scenario(args)
        if args.cut_layer is not None:
            depth = len(scenario.make_model())
            if not 1 <= args.cut_layer <= depth - 1:
                raise ValueError(
                    f"--cut-layer must be between 1 and {depth - 1} for the "
                    f"{depth}-layer {scenario.model_name} model, got {args.cut_layer}"
                )
        aggregation = scenario.scheme.aggregation
        if (
            not SCHEME_REGISTRY[args.scheme].supports_async
            and not parse_aggregation(aggregation).synchronous
        ):
            raise ValueError(
                f"scheme {args.scheme!r} does not support "
                f"--aggregation {aggregation} (only the sync barrier: "
                f"'sync' or 'bounded:0')"
            )
        # The scheme validates the rest of its arguments (regrouping
        # without a barrier) as it is constructed.
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
            export_trace(args.trace_out, scheme, scenario_name=args.scenario or args.scale)
        except OSError as exc:
            print(f"error: cannot write --trace-out {args.trace_out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote trace: {args.trace_out}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.name:
        try:
            _check_arguments(args)
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
    try:
        built = _scenario(args).build()
        sweeps = {name: best_cut(name, built) for name in ("SL", "GSFL")}
    except ValueError as exc:
        return _config_error(exc)
    print(f"{'cut':>4} {'SL (ms)':>11}   {'GSFL (ms)':>11}")
    for (cut, sl), (_, gsfl) in zip(sweeps["SL"][1], sweeps["GSFL"][1]):
        marks = ["*" if cut == sweeps[name][0] else " " for name in ("SL", "GSFL")]
        print(f"{cut:>4} {sl * 1e3:>11.2f} {marks[0]} {gsfl * 1e3:>11.2f} {marks[1]}".rstrip())
    print("\n* the scheme's best cut (a dry round of its own, no training)")
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


#: every subcommand: its handler and its ``--help`` line
COMMANDS = {
    "figures": (_cmd_figures, "Fig 2a and Fig 2b from one priced training"),
    "run": (_cmd_run, "run one scheme"),
    "scenarios": (_cmd_scenarios, "list the scenario catalog (or describe one world)"),
    "cuts": (_cmd_cuts, "cut-layer sweep: SL and GSFL round latency per cut"),
    "info": (_cmd_info, "print the scenario summary"),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = COMMANDS[args.command][0]
    if args.command not in _BUILDING:  # builds nothing, so takes no --dtype
        return handler(args)
    # Dtype must be pinned before any model/scenario construction; restore
    # afterwards so in-process callers (tests) see no global side effect.
    previous = set_default_dtype(args.dtype)
    try:
        return handler(args)
    finally:
        set_default_dtype(previous)


if __name__ == "__main__":
    sys.exit(main())
