"""Job records and the columnar job log container."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.utils.timeutils import HOUR


@dataclass(frozen=True, order=True)
class JobRecord:
    """One job, as reported by ``sacct`` (Section 2.2).

    Attributes
    ----------
    submit:
        Submission time, seconds since the start of the observed period.
    start, end:
        Start and end of execution.
    n_nodes:
        Number of allocated nodes.  Stored as a float so that job-size
        scaling by non-integer factors (Section 5.6) keeps its exact cost
        weight; real logs carry integers.
    job_id:
        Scheduler-assigned identifier.
    """

    submit: float
    start: float
    end: float
    n_nodes: float
    job_id: int = 0

    def __post_init__(self) -> None:
        for name in ("submit", "start", "end", "n_nodes"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"job {name} must be finite, got {value!r}")
        if self.start < self.submit:
            raise ValueError("job cannot start before it is submitted")
        if self.end < self.start:
            raise ValueError("job cannot end before it starts")
        if self.n_nodes <= 0:
            raise ValueError("job must allocate at least a fraction of a node")

    @property
    def duration(self) -> float:
        """Wallclock duration in seconds."""
        return self.end - self.start

    @property
    def node_hours(self) -> float:
        """Total compute consumed by the job, in node–hours."""
        return self.n_nodes * self.duration / HOUR


class JobLog:
    """Columnar, NumPy-backed collection of jobs sorted by start time."""

    __slots__ = ("job_id", "submit", "start", "end", "n_nodes")

    def __init__(
        self,
        job_id: Sequence[int],
        submit: Sequence[float],
        start: Sequence[float],
        end: Sequence[float],
        n_nodes: Sequence[float],
    ) -> None:
        self.job_id = np.asarray(job_id, dtype=np.int64)
        self.submit = np.asarray(submit, dtype=np.float64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.n_nodes = np.asarray(n_nodes, dtype=np.float64)
        lengths = {
            arr.shape[0]
            for arr in (self.job_id, self.submit, self.start, self.end, self.n_nodes)
        }
        if len(lengths) > 1:
            raise ValueError("all job log columns must have the same length")
        if len(self) and np.any(np.diff(self.start) < 0):
            order = np.argsort(self.start, kind="stable")
            for name in self.__slots__:
                setattr(self, name, getattr(self, name)[order])
        if len(self):
            if not np.isfinite([self.submit, self.start, self.end, self.n_nodes]).all():
                raise ValueError("job log contains non-finite timestamps or node counts")
            if np.any(self.end < self.start) or np.any(self.start < self.submit):
                raise ValueError("job log contains inconsistent timestamps")
            if np.any(self.n_nodes <= 0):
                raise ValueError("job log contains non-positive node counts")

    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "JobLog":
        return cls([], [], [], [], [])

    @classmethod
    def from_records(cls, records: Iterable[JobRecord]) -> "JobLog":
        records = list(records)
        return cls(
            job_id=[r.job_id for r in records],
            submit=[r.submit for r in records],
            start=[r.start for r in records],
            end=[r.end for r in records],
            n_nodes=[r.n_nodes for r in records],
        )

    def __len__(self) -> int:
        return int(self.job_id.shape[0])

    def __iter__(self) -> Iterator[JobRecord]:
        return (self.record(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JobLog):
            return NotImplemented
        return len(self) == len(other) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.__slots__
        )

    def record(self, index: int) -> JobRecord:
        """Materialise job ``index`` as a :class:`JobRecord`."""
        return JobRecord(
            job_id=int(self.job_id[index]),
            submit=float(self.submit[index]),
            start=float(self.start[index]),
            end=float(self.end[index]),
            n_nodes=float(self.n_nodes[index]),
        )

    def to_records(self) -> List[JobRecord]:
        return list(self)

    # ------------------------------------------------------------------ #
    @property
    def durations(self) -> np.ndarray:
        """Wallclock durations of all jobs, seconds."""
        return self.end - self.start

    @property
    def node_hours(self) -> np.ndarray:
        """Per-job consumed node–hours."""
        return self.n_nodes * self.durations / HOUR

    def total_node_hours(self) -> float:
        """Total compute delivered to jobs over the period."""
        return float(self.node_hours.sum())

    def utilization(self, n_cluster_nodes: int, duration_seconds: float) -> float:
        """Fraction of the cluster's capacity consumed by the logged jobs."""
        capacity = n_cluster_nodes * duration_seconds / HOUR
        if capacity <= 0:
            return 0.0
        return self.total_node_hours() / capacity

    def filter_time(self, t_start: float, t_end: float) -> "JobLog":
        """Jobs whose execution overlaps ``[t_start, t_end)``."""
        mask = (self.end > t_start) & (self.start < t_end)
        return self.select(mask)

    def select(self, mask: np.ndarray) -> "JobLog":
        """Sub-log selected by boolean mask or index array."""
        mask = np.asarray(mask)
        return JobLog(
            job_id=self.job_id[mask],
            submit=self.submit[mask],
            start=self.start[mask],
            end=self.end[mask],
            n_nodes=self.n_nodes[mask],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not len(self):
            return "JobLog(empty)"
        return (
            f"JobLog(jobs={len(self)}, nodes max={self.n_nodes.max():.0f}, "
            f"node-hours={self.total_node_hours():.0f})"
        )
