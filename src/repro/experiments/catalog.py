"""Scenario catalog: named worlds, looked up by string.

Scenarios were a handful of CLI flags around two presets; a fleet
simulator wants worlds as first-class named artifacts (the registry
idiom of torchvision's ``prototype/models/_api.py``: named entries with
metadata, lookup by string, list/describe support).  Each entry is a
builder closing over a full :class:`ExperimentScenario` — availability
process, failure model, device tiers, background link load — so
``--scenario NAME`` reproduces a world end-to-end from one string and
every world ships with a pinned bench row (``BENCH_runtime.json``,
"catalog" section).

Beyond the registered names, the dynamic ``replay:<trace.jsonl>`` form
rebuilds a world from a recorded ``--trace-out`` file: the trace's
``meta`` row carries the scenario name, seed, fleet shape and full
dynamics config, and its ``availability`` rows re-drive the churn
process exactly (see
:class:`repro.experiments.availability.TraceReplay`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

from repro.devtools.trace_schema import REPLAY_META_REQUIRED, TRACE_SCHEMAS
from repro.experiments.dynamics import DynamicsConfig
from repro.experiments.scenario import (
    ExperimentScenario,
    fast_scenario,
    paper_scenario,
)
from repro.sim.cross_traffic import CrossTrafficConfig

__all__ = [
    "ScenarioEntry",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "describe_scenario",
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
# trace replay
# ----------------------------------------------------------------------
def _read_meta(path: str) -> "dict[str, object]":
    """First ``meta`` row of a recorded trace, schema-checked.

    The row must carry every field replay reads
    (:data:`~repro.devtools.trace_schema.REPLAY_META_REQUIRED`; ``null``
    values are fine), and no field unknown to the canonical registry: an
    unknown one means recorder and parser have drifted apart.  Other
    registered fields may be missing.
    """
    try:
        fh = open(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace {path!r}: {exc}")
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"trace {path!r} is not JSONL: {exc}")
            if isinstance(row, dict) and row.get("type") == "meta":
                unknown = sorted(set(row) - TRACE_SCHEMAS["meta"])
                if unknown:
                    raise ValueError(
                        f"trace {path!r} meta row carries fields unknown to "
                        f"repro.devtools.trace_schema: {unknown}"
                    )
                missing = sorted(REPLAY_META_REQUIRED - set(row))
                if missing:
                    raise ValueError(
                        f"trace {path!r} meta row lacks {', '.join(missing)}, "
                        "which replay needs to rebuild the world"
                    )
                return row
            break
    raise ValueError(f"trace {path!r} has no leading 'meta' row")


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
    meta = _read_meta(path)
    base_seed = int(meta["seed"])
    base_name = meta["scenario"]
    if base_name in SCENARIO_REGISTRY:
        scenario = SCENARIO_REGISTRY[base_name].builder(base_seed)
    else:
        scenario = fast_scenario(with_wireless=True, seed=base_seed)
    num_clients = int(meta["num_clients"])
    if scenario.num_clients != num_clients:
        scenario = fast_scenario(
            with_wireless=True,
            num_clients=num_clients,
            num_groups=min(scenario.num_groups, num_clients),
            seed=base_seed,
        )
    num_groups = meta["num_groups"]
    if num_groups:
        scenario.num_groups = int(num_groups)
    recorded = meta["dynamics"]
    kwargs = dict(recorded) if isinstance(recorded, dict) else {}
    kwargs["availability"] = f"trace:{path}"
    scenario.dynamics = DynamicsConfig(**kwargs)
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
