"""The serial fan-out behind every round engine's independent tasks."""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Run every task inline, in input order.

    Kept as a class rather than a bare loop because the end-to-end
    benchmark's tracer wraps ``SerialExecutor.map_groups`` by name (with
    ``items`` passed positionally) to time the round engine's fan-out and
    count its tasks (``exec.tasks``).
    """

    def map_groups(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
        """Return ``[fn(item) for item in items]``."""
        return [fn(item) for item in items]
