"""Scenario catalog: named worlds, looked up by string, and their trace.

Scenarios were a handful of CLI flags around two presets; a fleet
simulator wants worlds as first-class named artifacts (the registry
idiom of torchvision's ``prototype/models/_api.py``: named entries with
metadata, lookup by string, list/describe support).  Each entry is a
builder closing over a full :class:`ExperimentScenario` — availability
process, failure model, device tiers, background link load — so
``--scenario NAME`` reproduces a world end-to-end from one string and
every world ships with a pinned bench row (``BENCH_runtime.json``,
"catalog" section).

:func:`export_trace` records a finished run as the ``--trace-out`` JSONL
file, and the dynamic ``replay:<trace.jsonl>`` form rebuilds its world
from that file's ``meta`` row (scenario name, seed, fleet shape and full
dynamics config) while its ``availability`` rows re-drive the churn
exactly (see :class:`repro.experiments.availability.TraceReplay`).  Both
read the file through :func:`repro.devtools.trace_schema.read_rows`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable

from repro.devtools.trace_schema import read_rows, validate_row
from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.scenario import (
    ExperimentScenario,
    fast_scenario,
    paper_scenario,
)
from repro.schemes.base import Scheme
from repro.sim.cross_traffic import CrossTrafficConfig
from repro.wireless.energy import EnergyModel, EnergyReport

__all__ = [
    "ScenarioEntry",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "describe_scenario",
    "export_trace",
]


@dataclass(frozen=True)
class ScenarioEntry:
    """One catalog entry: builder plus the metadata shown by list/describe."""

    name: str
    summary: str
    tags: tuple[str, ...]
    builder: Callable[[int], ExperimentScenario]


#: the global registry; populated by :func:`register_scenario` below
SCENARIO_REGISTRY: dict[str, ScenarioEntry] = {}


_Builder = Callable[[int], ExperimentScenario]


def register_scenario(
    name: str, *, summary: str, tags: "tuple[str, ...]" = ()
) -> Callable[[_Builder], _Builder]:
    """Decorator registering ``builder(seed) -> ExperimentScenario``."""

    def decorator(builder: _Builder) -> _Builder:
        if name in SCENARIO_REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIO_REGISTRY[name] = ScenarioEntry(name, summary, tuple(tags), builder)
        return builder

    return decorator


def get_scenario(name: str, seed: int = 0) -> ExperimentScenario:
    """Build the named scenario (or ``replay:<trace.jsonl>``); raises
    ``ValueError`` for unknown names."""
    if name.startswith("replay:"):
        return _replay_scenario(name[len("replay:"):])
    entry = SCENARIO_REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(SCENARIO_REGISTRY))
        raise ValueError(
            f"unknown scenario {name!r}; registered: {known} "
            f"(or replay:<trace.jsonl>)"
        )
    return entry.builder(seed)


def list_scenarios() -> list[ScenarioEntry]:
    """All registered entries, sorted by name."""
    return [SCENARIO_REGISTRY[k] for k in sorted(SCENARIO_REGISTRY)]


def describe_scenario(name: str, seed: int = 0) -> str:
    """Multi-line human-readable description of one world."""
    scenario = get_scenario(name, seed)
    entry = SCENARIO_REGISTRY.get(name)
    lines = [f"scenario : {name}"]
    if entry is not None:
        lines.append(f"summary  : {entry.summary}")
        if entry.tags:
            lines.append(f"tags     : {', '.join(entry.tags)}")
    else:
        lines.append("summary  : replay of a recorded fleet trace")
    lines.append(
        f"fleet    : {scenario.num_clients} clients / {scenario.num_groups} "
        f"groups, model={scenario.model_name}, grouping={scenario.grouping}"
    )
    if scenario.wireless is not None and scenario.wireless.device_classes:
        tiers = ", ".join(
            f"{n}@{f:.1e}" for n, f in scenario.wireless.device_classes
        )
        lines.append(f"devices  : {tiers} (round-robin tiers)")
    dyn = scenario.dynamics
    if dyn is None:
        lines.append("dynamics : none (static fleet)")
    else:
        churn = (
            f"up~{dyn.churn_uptime_s}s/down~{dyn.churn_downtime_s}s"
            if dyn.churn_uptime_s is not None
            else "no windows"
        )
        lines.append(
            f"dynamics : availability={dyn.availability}, {churn}, "
            f"participation={dyn.participation}, "
            f"failure_model={dyn.failure_model}, seed={dyn.seed}"
        )
    if scenario.cross_traffic is not None:
        ct = scenario.cross_traffic
        lines.append(
            f"link     : {ct.num_sources} background burst source(s), "
            f"load={ct.load:.0%} of capacity, burst={ct.burst_bits:.1e} bits, "
            f"idle~{ct.mean_idle_s}s"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace export and replay
# ----------------------------------------------------------------------
def export_trace(path: str, scheme: Scheme, scenario_name: "str | None" = None) -> None:
    """Write the run's per-activity trace + energy summary as JSONL.

    The export doubles as a trace-*in* format: the ``meta`` row carries
    the full dynamics config (and scenario name/seed), and per-client
    ``availability`` rows record the realized churn toggle streams, so
    ``--scenario replay:<path>`` can re-drive the same fleet history.
    """
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
                "failure_model": scheme.failure_model,
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
        def joules(report: EnergyReport) -> "dict[str, float]":
            return {"tx_j": report.tx_j, "rx_j": report.rx_j, "compute_j": report.compute_j,
                    "idle_j": report.idle_j, "total_j": report.total_j}

        reports = energy.per_client_energy(recorder, total_span)
        fleet = sum(reports.values(), EnergyReport.zero())
        for actor, report in sorted(reports.items()):
            emit({"type": "energy", "actor": actor, **joules(report)})
        emit({"type": "energy_summary", **joules(fleet)})


def _replay_scenario(path: str) -> ExperimentScenario:
    """Rebuild a world from a recorded trace and re-drive its churn.

    The base world, at the recorded seed, comes from the recorded scenario
    name when it is registered (falling back to the fast preset),
    re-shaped to the recorded fleet size; the dynamics config is the
    recorded one with its availability process swapped for exact trace
    replay.  Learning hyper-parameters not captured in the meta row (a
    ``--transport`` override, say) follow the base world — availability
    replay, not the full run, is the contract.
    """
    rows = read_rows(path, "meta")
    if not rows or rows[0][0] != 1:  # the exporter writes it first, on line 1
        raise ValueError(f"trace {path!r} has no leading 'meta' row")
    meta = rows[0][1]
    seed, num_clients = meta["seed"], meta["num_clients"]
    entry = SCENARIO_REGISTRY.get(meta["scenario"] or "")
    scenario = (entry.builder(seed) if entry is not None
                else fast_scenario(with_wireless=True, seed=seed))
    if scenario.num_clients != num_clients:
        # Re-shaped onto the fast world: refuse a fleet its training split
        # cannot give one sample per client before anything is sized by it.
        dataset = fast_scenario(with_wireless=False, seed=seed).dataset
        samples = int(dataset.class_counts(dataset.train_per_class).sum())
        if num_clients > samples:
            raise ValueError(
                f"{path}:1: num_clients must be at most {samples} (one training "
                f"sample per client in the replayed world), got {num_clients}"
            )
        scenario = fast_scenario(
            with_wireless=True,
            num_clients=num_clients,
            num_groups=min(scenario.num_groups, num_clients),
            seed=seed,
        )
    if meta["num_groups"] is not None:
        scenario = replace(scenario, num_groups=meta["num_groups"])
    recorded = meta["dynamics"] or {}
    unknown = sorted(set(recorded) - {f.name for f in fields(DynamicsConfig)})
    if unknown:
        raise ValueError(f"{path}:1: dynamics has keys DynamicsConfig does not take: {unknown}")
    try:
        scenario.dynamics = DynamicsConfig(**{**recorded, "availability": f"trace:{path}"})
    except ValueError as exc:
        raise ValueError(f"{path}:1: dynamics: {exc}") from None
    return scenario


# ----------------------------------------------------------------------
# registered worlds
# ----------------------------------------------------------------------
# The two presets register verbatim so `--scenario fast|paper` is
# guaranteed bitwise-identical to the flag-constructed scenarios (the
# catalog test pins the equality).


@register_scenario(
    "fast",
    summary="down-scaled test preset: 6 clients / 2 groups, static fleet",
    tags=("preset",),
)
def _fast(seed: int = 0) -> ExperimentScenario:
    return fast_scenario(with_wireless=True, seed=seed)


@register_scenario(
    "paper",
    summary="the paper's §III setting: 30 clients / 6 groups, DeepThin CNN",
    tags=("preset",),
)
def _paper(seed: int = 0) -> ExperimentScenario:
    return paper_scenario(with_wireless=True, seed=seed)


@register_scenario(
    "churn",
    summary="the churn benchmark as a named world: exponential on/off, "
    "mid-activity preemption, retry/reroute recovery",
    tags=("availability", "churn"),
)
def _churn(seed: int = 0) -> ExperimentScenario:
    s = fast_scenario(with_wireless=True, num_clients=12, num_groups=4, seed=seed)
    s.dynamics = DynamicsConfig(
        churn_uptime_s=0.15,
        churn_downtime_s=0.05,
        failure_model="mid-activity",
        max_retries=2,
        seed=seed,
    )
    return s


@register_scenario(
    "diurnal",
    summary="availability waves: window means ride a sinusoid, so peak "
    "phase keeps clients up and off-peak thins the fleet",
    tags=("availability", "churn"),
)
def _diurnal(seed: int = 0) -> ExperimentScenario:
    s = fast_scenario(with_wireless=True, seed=seed)
    # Period ~ tens of fast-scale rounds (a round is ~0.1 s simulated),
    # so runs sweep through both phases.
    s.dynamics = DynamicsConfig(
        churn_uptime_s=0.3,
        churn_downtime_s=0.1,
        availability="diurnal:2.0:0.8",
        seed=seed,
    )
    return s


@register_scenario(
    "cell-outage",
    summary="correlated outages: 12 clients across 4 cells, a whole cell "
    "goes dark together and in-flight work is preempted",
    tags=("availability", "correlated"),
)
def _cell_outage(seed: int = 0) -> ExperimentScenario:
    s = fast_scenario(with_wireless=True, num_clients=12, num_groups=4, seed=seed)
    s.dynamics = DynamicsConfig(
        churn_uptime_s=0.5,
        churn_downtime_s=0.12,
        availability="cells:4",
        failure_model="mid-activity",
        max_retries=2,
        seed=seed,
    )
    return s


@register_scenario(
    "mobility",
    summary="handoff-flavored churn: exponential coverage dwell, fixed "
    "handoff blackout, mid-activity preemption",
    tags=("availability", "mobility"),
)
def _mobility(seed: int = 0) -> ExperimentScenario:
    s = fast_scenario(with_wireless=True, seed=seed)
    s.dynamics = DynamicsConfig(
        churn_uptime_s=0.4,
        churn_downtime_s=0.02,
        availability="handoff",
        failure_model="mid-activity",
        max_retries=2,
        seed=seed,
    )
    return s


@register_scenario(
    "device-classes",
    summary="phone / laptop / edge-box compute tiers assigned round-robin "
    "instead of a uniform fleet",
    tags=("compute",),
)
def _device_classes(seed: int = 0) -> ExperimentScenario:
    s = fast_scenario(with_wireless=True, seed=seed)
    s.wireless = replace(
        s.wireless,
        device_classes=(
            ("phone", 1.0e8),
            ("laptop", 6.0e8),
            ("edge-box", 2.4e9),
        ),
    )
    return s


@register_scenario(
    "cross-traffic",
    summary="bursty background load on the shared link squeezes foreground "
    "transmissions (static-medium oversubscription)",
    tags=("link",),
)
def _cross_traffic(seed: int = 0) -> ExperimentScenario:
    s = fast_scenario(with_wireless=True, seed=seed)
    # A burst holds 60% of the 20 MHz link for ~0.125 s — about one
    # fast-scale round — with ~0.15 s mean gaps per source.
    s.cross_traffic = CrossTrafficConfig(
        num_sources=2,
        mean_idle_s=0.15,
        burst_bits=1.5e6,
        load=0.6,
        seed=seed,
    )
    return s
