"""Scheme construction and multi-scheme experiment execution."""

from __future__ import annotations

from repro.core.gsfl import GroupSplitFederatedLearning
from repro.experiments.scenario import BuiltScenario
from repro.metrics.history import TrainingHistory
from repro.schemes.base import Scheme
from repro.schemes.centralized import CentralizedLearning
from repro.schemes.federated import FederatedLearning
from repro.schemes.parallel_split import ParallelSplitLearning
from repro.schemes.split import SplitLearning
from repro.schemes.splitfed import SplitFedLearning

__all__ = ["SCHEME_REGISTRY", "make_scheme", "run_schemes"]

SCHEME_REGISTRY = {
    "CL": CentralizedLearning,
    "FL": FederatedLearning,
    "SL": SplitLearning,
    "SplitFed": SplitFedLearning,
    "PSL": ParallelSplitLearning,
    "GSFL": GroupSplitFederatedLearning,
}


def make_scheme(name: str, built: BuiltScenario, **overrides: object) -> Scheme:
    """Construct a scheme over a built scenario.

    Every scheme gets a fresh model initialized from the scenario's fixed
    seed and its own fading stream, so cross-scheme comparisons start from
    identical weights and channels, whatever was made from ``built`` before.
    Split-based schemes receive the scenario's cut layer; GSFL receives
    the group count.  ``overrides`` pass extra constructor arguments
    (e.g. ``groups=...`` or ``bandwidth_shares=...``).
    """
    if name not in SCHEME_REGISTRY:
        raise ValueError(f"unknown scheme {name!r}; available: {sorted(SCHEME_REGISTRY)}")
    cls = SCHEME_REGISTRY[name]
    kwargs: dict = {"model": built.scenario.make_model(), **built.scheme_kwargs()}
    if name in ("SL", "SplitFed", "PSL", "GSFL"):
        kwargs["cut_layer"] = built.scenario.resolved_cut_layer()
    if name == "GSFL":
        kwargs["num_groups"] = built.scenario.num_groups
        kwargs["grouping"] = built.scenario.grouping
    kwargs.update(overrides)
    return cls(**kwargs)


def run_schemes(
    built: BuiltScenario,
    scheme_names: list[str],
    num_rounds: int,
    verbose: bool = False,
) -> dict[str, TrainingHistory]:
    """Run several schemes on one scenario; returns name → history."""
    histories: dict[str, TrainingHistory] = {}
    for name in scheme_names:
        scheme = make_scheme(name, built)
        history = scheme.run(num_rounds)
        histories[name] = history
        if verbose:
            print(history.summary())
    return histories
