"""``repro.experiments`` — scenario presets, the scenario catalog,
population dynamics and figure-regeneration harnesses."""

from repro.experiments.availability import (
    AVAILABILITY_KINDS,
    AvailabilitySpec,
    RenewalProcess,
    parse_availability,
)
from repro.experiments.catalog import (
    SCENARIO_REGISTRY,
    ScenarioEntry,
    describe_scenario,
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.experiments.dynamics import ClientDynamics, DynamicsConfig, RoundConditions
from repro.experiments.figures import Fig2aResult, Fig2bResult, run_fig2a, run_fig2b
from repro.experiments.runner import SCHEME_REGISTRY, best_cut, make_scheme, run_schemes
from repro.experiments.scenario import (
    BuiltScenario,
    ExperimentScenario,
    fast_scenario,
    paper_scenario,
)

__all__ = [
    "ExperimentScenario",
    "BuiltScenario",
    "DynamicsConfig",
    "ClientDynamics",
    "RoundConditions",
    "AVAILABILITY_KINDS",
    "AvailabilitySpec",
    "RenewalProcess",
    "parse_availability",
    "ScenarioEntry",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "describe_scenario",
    "paper_scenario",
    "fast_scenario",
    "SCHEME_REGISTRY",
    "make_scheme",
    "best_cut",
    "run_schemes",
    "run_fig2a",
    "run_fig2b",
    "Fig2aResult",
    "Fig2bResult",
]
