"""Multi-seed experiment aggregation.

Single runs lie; the paper's figures (like most) are single-seed.  This
module runs the same experiment across seeds and reports mean ± spread
for the headline quantities, with a Student-t confidence interval —
cheap experimental rigor for any claim in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.metrics.history import TrainingHistory

__all__ = ["SeedSummary", "aggregate_metric", "run_multiseed", "mean_curve"]


@dataclass(frozen=True)
class SeedSummary:
    """Mean/spread summary of one scalar metric across seeds."""

    metric: str
    values: tuple[float, ...]
    mean: float
    std: float
    ci_low: float
    ci_high: float

    @property
    def num_seeds(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.mean:.4f} ± {self.std:.4f} "
            f"(95% CI [{self.ci_low:.4f}, {self.ci_high:.4f}], n={self.num_seeds})"
        )


def aggregate_metric(
    metric: str, values: list[float], confidence: float = 0.95
) -> SeedSummary:
    """Summarize per-seed scalar values with a t-interval.

    Degenerate cases (n=1 or zero variance) collapse the interval to the
    mean.
    """
    arr = np.asarray([v for v in values if np.isfinite(v)], dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"no finite values for metric {metric!r}")
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    if arr.size > 1 and std > 0:
        # Imported here, by its only user: scipy.stats costs ~0.9 s and
        # ~80 MiB, which every CLI run would otherwise pay at import time.
        from scipy import stats

        sem = std / np.sqrt(arr.size)
        t = stats.t.ppf(0.5 + confidence / 2, df=arr.size - 1)
        lo, hi = mean - t * sem, mean + t * sem
    else:
        lo = hi = mean
    return SeedSummary(
        metric=metric,
        values=tuple(float(v) for v in arr),
        mean=mean,
        std=std,
        ci_low=float(lo),
        ci_high=float(hi),
    )


def run_multiseed(
    experiment: Callable[[int], TrainingHistory],
    seeds: list[int],
    target_accuracy: float | None = None,
) -> dict[str, SeedSummary]:
    """Run ``experiment(seed)`` per seed and summarize headline metrics.

    Always reports ``final_accuracy``, ``best_accuracy`` and
    ``total_latency_s``; adds ``rounds_to_target`` / ``latency_to_target``
    when ``target_accuracy`` is given (seeds that never reach the target
    are dropped from those two summaries).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    histories = [experiment(seed) for seed in seeds]

    out: dict[str, SeedSummary] = {
        "final_accuracy": aggregate_metric(
            "final_accuracy", [h.final_accuracy for h in histories]
        ),
        "best_accuracy": aggregate_metric(
            "best_accuracy", [h.best_accuracy for h in histories]
        ),
        "total_latency_s": aggregate_metric(
            "total_latency_s", [h.total_latency_s for h in histories]
        ),
    }
    if target_accuracy is not None:
        rounds = [h.rounds_to_accuracy(target_accuracy) for h in histories]
        rounds = [float(r) for r in rounds if r is not None]
        if rounds:
            out["rounds_to_target"] = aggregate_metric("rounds_to_target", rounds)
        latencies = [h.latency_to_accuracy(target_accuracy) for h in histories]
        latencies = [float(l) for l in latencies if l is not None]
        if latencies:
            out["latency_to_target"] = aggregate_metric("latency_to_target", latencies)
    return out


def mean_curve(
    histories: list[TrainingHistory],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise mean ± std accuracy curve across same-schedule runs.

    All histories must share the same evaluation rounds.
    """
    if not histories:
        raise ValueError("need at least one history")
    rounds = histories[0].rounds
    for h in histories[1:]:
        if not np.array_equal(h.rounds, rounds):
            raise ValueError("histories have mismatched evaluation schedules")
    acc = np.stack([h.accuracies for h in histories])
    return rounds, acc.mean(axis=0), acc.std(axis=0)
