"""Time-series nested cross-validation (Section 4.1, Figure 2).

The error log is divided into six equal parts.  Each part is tested with a
model trained (and hyperparameter-tuned) only on data that precedes it: the
pre-test data is split 75 % / 25 % into training and validation ranges.  The
first split is special — it uses the first two weeks of the log for training
and validation, and the remainder of the first part for testing — so that
almost all of the production log is covered by the evaluation.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from typing import List, Tuple

from repro.utils.timeutils import DAY
from repro.utils.validation import Rule, check_fields, number, sequence_of


@dataclass(frozen=True)
class TimeSeriesSplit:
    """One split of the nested cross-validation.

    All ranges are half-open ``[start, end)`` intervals in log time.
    """

    index: int
    train_range: Tuple[float, float] = sequence_of(MISSING, number())
    validation_range: Tuple[float, float] = sequence_of(MISSING, number())
    test_range: Tuple[float, float] = sequence_of(MISSING, number())

    def __post_init__(self) -> None:
        check_fields(self)
        for name, (start, end) in (
            ("train_range", self.train_range),
            ("validation_range", self.validation_range),
            ("test_range", self.test_range),
        ):
            if end < start:
                raise ValueError(f"{name} must satisfy start <= end")
        if self.validation_range[1] > self.test_range[0] + 1e-9:
            raise ValueError("validation data must precede the test range")

    @property
    def history_range(self) -> Tuple[float, float]:
        """Everything available before the test range (train + validation)."""
        return (self.train_range[0], self.validation_range[1])

    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        return simple_to_dict(self, "time_series_split")

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeriesSplit":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict

        return simple_from_dict(cls, data, "time_series_split")


class TimeSeriesNestedCV:
    """Generator of the six time-series splits of Figure 2."""

    def __init__(
        self,
        n_parts: int = 6,
        train_fraction: float = 0.75,
        bootstrap_seconds: float = 14 * DAY,
    ) -> None:
        Rule(int, low=1)("n_parts", n_parts)
        Rule(float, low=0, high=1)("train_fraction", train_fraction)
        Rule(float, low=0, strict=True)("bootstrap_seconds", bootstrap_seconds)
        self.n_parts = int(n_parts)
        self.train_fraction = float(train_fraction)
        self.bootstrap_seconds = float(bootstrap_seconds)

    def part_boundaries(self, t_start: float, t_end: float) -> List[float]:
        """Boundaries of the equal parts, ``n_parts + 1`` values."""
        if t_end <= t_start:
            raise ValueError("t_end must be greater than t_start")
        width = (t_end - t_start) / self.n_parts
        return [t_start + i * width for i in range(self.n_parts + 1)]

    def splits(self, t_start: float, t_end: float) -> List[TimeSeriesSplit]:
        """Build the splits covering ``[t_start, t_end)``."""
        boundaries = self.part_boundaries(t_start, t_end)
        splits: List[TimeSeriesSplit] = []
        for i in range(self.n_parts):
            test_start = boundaries[i]
            test_end = boundaries[i + 1]
            if i == 0:
                # Bootstrap split: the first two weeks are used for training
                # and validation, the rest of the first part for testing.  On
                # very short logs the bootstrap window is capped at half of
                # the first part so the test range is never empty.
                bootstrap_end = min(
                    t_start + self.bootstrap_seconds,
                    test_start + 0.5 * (test_end - test_start),
                )
                train_end = t_start + self.train_fraction * (bootstrap_end - t_start)
                splits.append(
                    TimeSeriesSplit(
                        index=0,
                        train_range=(t_start, train_end),
                        validation_range=(train_end, bootstrap_end),
                        test_range=(bootstrap_end, test_end),
                    )
                )
                continue
            history_start = t_start
            history_end = test_start
            train_end = history_start + self.train_fraction * (
                history_end - history_start
            )
            splits.append(
                TimeSeriesSplit(
                    index=i,
                    train_range=(history_start, train_end),
                    validation_range=(train_end, history_end),
                    test_range=(test_start, test_end),
                )
            )
        return splits
