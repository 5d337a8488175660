"""Small argument-validation helpers used across the library."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0 (NaN included)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_fraction(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is in [0, 1]."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_sorted(name: str, values: Sequence[float]) -> np.ndarray:
    """Raise ``ValueError`` unless ``values`` is non-decreasing."""
    arr = np.asarray(values, dtype=float)
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} must be sorted in non-decreasing order")
    return arr
