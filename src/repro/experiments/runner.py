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
from repro.schemes.split_common import SplitFederatedScheme
from repro.schemes.splitfed import SplitFedLearning

__all__ = ["SCHEME_REGISTRY", "make_scheme", "best_cut", "run_schemes"]

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
    (e.g. ``groups=...`` or ``failure_rate=...``).
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


def best_cut(name: str, built: BuiltScenario) -> tuple[int, list[tuple[int, float]]]:
    """The cut that makes split scheme ``name``'s round fastest.

    Prices every valid cut with a fresh scheme's
    :meth:`~repro.schemes.split_common.SplitFederatedScheme.dry_round`, the
    round a trained run would price first; returns ``(best_cut, [(cut,
    seconds), ...])`` with the full sweep.
    """
    if built.profile is None:
        raise ValueError("choosing a cut needs a priced build (a wireless config)")
    sweep = []
    for cut in range(1, built.profile.num_layers):
        scheme = make_scheme(name, built, cut_layer=cut)
        if not isinstance(scheme, SplitFederatedScheme):
            raise ValueError(f"scheme {name!r} has no dry round; SL, SplitFed and GSFL do")
        sweep.append((cut, scheme.dry_round()))
    best = min(sweep, key=lambda pair: pair[1])[0]
    return best, sweep


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
