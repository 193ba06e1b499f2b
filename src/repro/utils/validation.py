"""Input validation helpers shared across the package.

Each helper raises a precise exception type from :mod:`repro.exceptions`
with a message that names the offending argument, so failures surface at
the API boundary instead of deep inside numpy broadcasting.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DimensionalityError
from repro.types import ArrayLike, FloatArray


def check_positive(name: str, value: float, *, strict: bool = True) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is positive.

    With ``strict=False`` zero is allowed.
    """
    if strict and not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    if not strict and not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Raise unless ``value`` lies in the closed interval [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")


def check_unit_interval(name: str, value: float) -> None:
    """Raise unless ``value`` lies in the half-open interval (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1], got {value!r}")


def check_1d(name: str, array: ArrayLike) -> FloatArray:
    """Coerce to a contiguous 1-D float array or raise."""
    out = np.asarray(array, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionalityError(
            f"{name} must be 1-D, got shape {out.shape}"
        )
    return np.ascontiguousarray(out)


def check_2d(name: str, array: ArrayLike) -> FloatArray:
    """Coerce to a contiguous 2-D float array or raise.

    A 1-D input is promoted to a single-row matrix, matching the common
    "one sample" calling convention.
    """
    out = np.asarray(array, dtype=np.float64)
    if out.ndim == 1:
        out = out[np.newaxis, :]
    if out.ndim != 2:
        raise DimensionalityError(
            f"{name} must be 2-D (or a single 1-D row), got shape {out.shape}"
        )
    return np.ascontiguousarray(out)


def check_matching_lengths(
    name_a: str, a: ArrayLike, name_b: str, b: ArrayLike
) -> None:
    """Raise unless the two arrays have the same leading dimension."""
    len_a = np.asarray(a).shape[0]
    len_b = np.asarray(b).shape[0]
    if len_a != len_b:
        raise DimensionalityError(
            f"{name_a} and {name_b} must have matching lengths, "
            f"got {len_a} and {len_b}"
        )


def check_nonempty(name: str, array: FloatArray) -> None:
    """Raise unless ``array`` holds at least one row."""
    if not len(array):
        raise DimensionalityError(f"{name} must hold at least one row, got 0")


def check_optional_pair(
    name_a: str, a: object, name_b: str, b: object
) -> bool:
    """Whether both halves of an optional pair were given.

    Raises :class:`ConfigurationError` naming the missing half when only
    one was, so a validation set is never dropped silently.
    """
    if (a is None) != (b is None):
        given, missing = (name_b, name_a) if a is None else (name_a, name_b)
        raise ConfigurationError(
            f"{given} was given without {missing}: pass both, or neither"
        )
    return a is not None
