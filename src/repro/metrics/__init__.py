"""``repro.metrics`` — histories, evaluation, and comparison reports."""

from repro.metrics.evaluate import evaluate_model, evaluate_split
from repro.metrics.history import HistoryPoint, TrainingHistory
from repro.metrics.multiseed import (
    SeedSummary,
    aggregate_metric,
    mean_curve,
    run_multiseed,
)
from repro.metrics.report import (
    accuracy_vs_latency_table,
    accuracy_vs_rounds_table,
    convergence_speedup,
    latency_reduction,
)

__all__ = [
    "HistoryPoint",
    "TrainingHistory",
    "evaluate_model",
    "evaluate_split",
    "accuracy_vs_rounds_table",
    "accuracy_vs_latency_table",
    "convergence_speedup",
    "latency_reduction",
    "SeedSummary",
    "aggregate_metric",
    "run_multiseed",
    "mean_curve",
]
