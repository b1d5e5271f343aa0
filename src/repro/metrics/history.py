"""Training histories: the (round, latency, loss, accuracy) series behind
both paper figures.

Fig. 2(a) plots accuracy against training rounds; Fig. 2(b) plots accuracy
against cumulative simulated latency.  :class:`TrainingHistory` records
both axes for every evaluation point plus the convergence queries
(`rounds_to_accuracy`, `latency_to_accuracy`) used in the paper's claims
("500% improvement in convergence speed", "reduces the delay by about
31.45%").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["HistoryPoint", "TrainingHistory"]


@dataclass(frozen=True)
class HistoryPoint:
    """One evaluation snapshot during training."""

    round_index: int
    latency_s: float
    train_loss: float
    test_accuracy: float


@dataclass
class TrainingHistory:
    """Chronological evaluation snapshots for one scheme run."""

    scheme: str
    points: list[HistoryPoint] = field(default_factory=list)

    def add(
        self, round_index: int, latency_s: float, train_loss: float, test_accuracy: float
    ) -> None:
        """Append a snapshot (rounds and latency must be non-decreasing)."""
        if self.points:
            last = self.points[-1]
            if round_index < last.round_index:
                raise ValueError(
                    f"round index went backwards: {round_index} < {last.round_index}"
                )
            if latency_s < last.latency_s - 1e-9:
                raise ValueError(
                    f"latency went backwards: {latency_s} < {last.latency_s}"
                )
        self.points.append(HistoryPoint(round_index, latency_s, train_loss, test_accuracy))

    # ------------------------------------------------------------------
    # series accessors
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> np.ndarray:
        return np.array([p.round_index for p in self.points])

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([p.test_accuracy for p in self.points])

    @property
    def final_accuracy(self) -> float:
        if not self.points:
            raise ValueError("history is empty")
        return self.points[-1].test_accuracy

    @property
    def best_accuracy(self) -> float:
        if not self.points:
            raise ValueError("history is empty")
        return float(self.accuracies.max())

    @property
    def total_latency_s(self) -> float:
        if not self.points:
            return 0.0
        return self.points[-1].latency_s

    # ------------------------------------------------------------------
    # convergence queries
    # ------------------------------------------------------------------
    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round at which test accuracy reaches ``target`` (None if never)."""
        for p in self.points:
            if p.test_accuracy >= target:
                return p.round_index
        return None

    def latency_to_accuracy(self, target: float) -> float | None:
        """Cumulative latency at which accuracy first reaches ``target``."""
        for p in self.points:
            if p.test_accuracy >= target:
                return p.latency_s
        return None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def to_rows(self) -> list[dict[str, float]]:
        """Plain-dict rows (for printing / CSV-ish dumps)."""
        return [
            {
                "scheme": self.scheme,
                "round": p.round_index,
                "latency_s": p.latency_s,
                "train_loss": p.train_loss,
                "test_accuracy": p.test_accuracy,
            }
            for p in self.points
        ]

    def summary(self) -> str:
        """One-line run summary."""
        if not self.points:
            return f"{self.scheme}: (empty)"
        return (
            f"{self.scheme}: {len(self.points)} evals, "
            f"final acc {self.final_accuracy:.3f}, best {self.best_accuracy:.3f}, "
            f"total latency {self.total_latency_s:.1f}s"
        )
