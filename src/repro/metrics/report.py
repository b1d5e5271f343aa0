"""Cross-scheme comparison reports matching the paper's claims.

The two headline numbers in §III are computed here:

* ``convergence_speedup(gsfl, fl, target)`` — the "nearly 500% improvement
  in convergence speed" of GSFL over FL (ratio of rounds-to-target);
* ``latency_reduction(gsfl, sl, target)`` — the "about 31.45%" delay
  reduction of GSFL vs vanilla SL (relative latency-to-target).
"""

from __future__ import annotations

from repro.metrics.history import TrainingHistory

__all__ = [
    "accuracy_vs_rounds_table",
    "accuracy_vs_latency_table",
    "convergence_speedup",
    "latency_reduction",
]


def accuracy_vs_rounds_table(histories: list[TrainingHistory]) -> str:
    """Render the Fig 2(a) series as an aligned text table."""
    header = f"{'round':>7} " + " ".join(f"{h.scheme:>10}" for h in histories)
    rounds = sorted({int(r) for h in histories for r in h.rounds})
    lines = [header]
    for r in rounds:
        cells = []
        for h in histories:
            match = [p.test_accuracy for p in h.points if p.round_index == r]
            cells.append(f"{match[0] * 100:10.2f}" if match else f"{'-':>10}")
        lines.append(f"{r:>7} " + " ".join(cells))
    return "\n".join(lines)


def accuracy_vs_latency_table(histories: list[TrainingHistory]) -> str:
    """Render the Fig 2(b) series (latency, accuracy) per scheme."""
    lines = []
    for h in histories:
        lines.append(f"--- {h.scheme} ---")
        lines.append(f"{'latency_s':>12} {'accuracy_%':>11}")
        for p in h.points:
            lines.append(f"{p.latency_s:>12.2f} {p.test_accuracy * 100:>11.2f}")
    return "\n".join(lines)


def convergence_speedup(
    fast: TrainingHistory, slow: TrainingHistory, target_accuracy: float
) -> float | None:
    """Ratio of rounds-to-target, slow/fast (≥1 means ``fast`` wins).

    Returns None when either scheme never reaches the target.
    """
    fast_rounds = fast.rounds_to_accuracy(target_accuracy)
    slow_rounds = slow.rounds_to_accuracy(target_accuracy)
    if fast_rounds is None or slow_rounds is None or fast_rounds == 0:
        return None
    return slow_rounds / fast_rounds


def latency_reduction(
    fast: TrainingHistory, slow: TrainingHistory, target_accuracy: float
) -> float | None:
    """Relative delay saving of ``fast`` vs ``slow`` to reach the target.

    ``(slow_latency - fast_latency) / slow_latency``, below 1; the paper
    reports 0.3145 for GSFL vs SL.  Negative when ``slow`` reaches the
    target first (-0.5: ``fast`` needs 1.5x its delay).  None when either
    never reaches the target.
    """
    fast_latency = fast.latency_to_accuracy(target_accuracy)
    slow_latency = slow.latency_to_accuracy(target_accuracy)
    if fast_latency is None or slow_latency is None or slow_latency == 0:
        return None
    return (slow_latency - fast_latency) / slow_latency
