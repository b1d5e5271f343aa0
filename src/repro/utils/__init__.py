"""Shared utilities: seeded RNG management, validation helpers, logging."""

from repro.utils.rng import new_rng, spawn_rngs
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_choices,
)

__all__ = [
    "new_rng",
    "spawn_rngs",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_choices",
]
