"""Shared utilities: seeded RNG plumbing and input validation."""

from repro.utils.rng import as_generator, derive_generator, spawn_generators
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_matching_lengths,
    check_optional_pair,
    check_positive,
    check_probability,
    check_unit_interval,
)

__all__ = [
    "as_generator",
    "derive_generator",
    "spawn_generators",
    "check_1d",
    "check_2d",
    "check_matching_lengths",
    "check_optional_pair",
    "check_positive",
    "check_probability",
    "check_unit_interval",
]
