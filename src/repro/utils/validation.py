"""Small argument-validation helpers used across the library.

These raise ``ValueError`` with a consistent message format naming the
offending parameter, so configuration errors surface at construction time
rather than as shape errors deep inside a simulation.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from typing import Any

__all__ = [
    "check_positive",
    "check_positive_finite",
    "check_non_negative",
    "check_non_negative_finite",
    "check_probability",
    "check_in_choices",
]


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value > 0``; return the value."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_positive_finite(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``0 < value < inf``; return the value.

    NaN is rejected too: every comparison with it is false.
    """
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be > 0 and finite, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value >= 0``; return the value.

    NaN is rejected too: ``nan < 0`` is false, but so is ``nan >= 0``.
    """
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_non_negative_finite(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``0 <= value < inf``; return the value."""
    check_non_negative(name, value)
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_probability(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``0 <= value <= 1``; return the value."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_in_choices(name: str, value: Any, choices: Collection[Any]) -> Any:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(
            f"{name} must be one of {sorted(map(str, choices))}, got {value!r}"
        )
    return value
