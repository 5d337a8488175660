"""Tests for the validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_sorted,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 3.5) == 3.5

    @pytest.mark.parametrize("value", [0, -1, -0.001, float("nan")])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", value)


class TestCheckNonNegative:
    def test_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1e-9)

    def test_rejects_nan(self):
        # ``nan < 0`` is False, so a plain negativity test lets NaN through.
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_non_negative("x", float("nan"))


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_fractions(self, value):
        assert check_fraction("x", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1, 2.0, float("nan")])
    def test_rejects_outside_unit_interval(self, value):
        with pytest.raises(ValueError):
            check_fraction("x", value)


class TestCheckSorted:
    def test_accepts_sorted(self):
        out = check_sorted("x", [1, 2, 2, 3])
        assert isinstance(out, np.ndarray)

    def test_accepts_empty_and_single(self):
        assert check_sorted("x", []).size == 0
        assert check_sorted("x", [5]).size == 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            check_sorted("x", [3, 1, 2])
