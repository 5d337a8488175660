"""FCFS and EASY-backfill cluster schedulers that place generated jobs on nodes.

The workload generator produces jobs (submission time, requested nodes,
duration); a scheduler assigns start times and node allocations, always
picking the nodes that free up earliest.  The paper's method only needs the
resulting joint distribution of (node count, elapsed time), but queueing
makes the generated log realistic (jobs wait when the machine is full).

The cluster state is the list of nodes sorted by free time, ties broken by
node index — the order ``np.argsort(free_at, kind="stable")`` gives — with
the free times in a parallel list.  An ``n``-node job takes the first ``n``
nodes and starts at ``max(submit, max(<n-th smallest free time>, 0.0))``;
its nodes go back at the bisected position of its end time, merged by node
index into any run of equal times.  :meth:`ClusterScheduler.schedule_all`
checks a batch up front, places it through that one core in the order the
discipline picks, and returns the :class:`JobLog`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive
from repro.workload.job import JobLog, JobRecord


@dataclass(frozen=True)
class ScheduledJob:
    """A job with its scheduler-assigned start time and node allocation."""

    record: JobRecord
    nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)


class ClusterScheduler:
    """First-come-first-served scheduler over a fixed pool of nodes."""

    def __init__(self, n_nodes: int) -> None:
        check_positive("n_nodes", n_nodes)
        self.n_nodes = int(n_nodes)
        self.reset()

    def reset(self) -> None:
        """Forget all previous allocations."""
        self._free_times: List[float] = [0.0] * self.n_nodes
        self._free_nodes: List[int] = list(range(self.n_nodes))

    def _check_width(self, n_nodes: int) -> None:
        if n_nodes > self.n_nodes:
            raise ValueError(
                f"job requests {n_nodes} nodes but the cluster has {self.n_nodes}"
            )
        if n_nodes < 1:
            raise ValueError(f"job must allocate at least one node, got {n_nodes}")

    def earliest_start(self, submit: float, n_nodes: int) -> float:
        """Start time the job would get if scheduled right now."""
        self._check_width(n_nodes)
        return max(submit, max(self._free_times[n_nodes - 1], 0.0))

    def _place(self, jobs: Iterable[int], submits, widths, durations) -> Tuple:
        """Place ``jobs`` in turn on the earliest-free nodes; return the placed
        indices, their starts and ends, and the last job's nodes."""
        times, free_nodes = self._free_times, self._free_nodes
        placed, starts, ends, nodes = [], [], [], []
        for i in jobs:
            n = widths[i]
            start = max(submits[i], max(times[n - 1], 0.0))
            end = start + durations[i]
            nodes = sorted(free_nodes[:n])
            del times[:n], free_nodes[:n]
            lo = bisect_left(times, end)
            hi = bisect_right(times, end, lo)
            times[lo:hi] = [end] * (hi - lo + n)
            free_nodes[lo:hi] = sorted(nodes + free_nodes[lo:hi]) if hi > lo else nodes
            placed.append(i)
            starts.append(start)
            ends.append(end)
        return placed, starts, ends, nodes

    def schedule(
        self, submit: float, n_nodes: int, duration: float, job_id: int = 0
    ) -> ScheduledJob:
        """Place one job and return its allocation.

        The job starts as soon as ``n_nodes`` nodes are simultaneously free
        after ``submit``; the chosen nodes are those that free up earliest.
        """
        self._check_width(n_nodes)
        for field, value in (("submit", submit), ("duration", duration)):
            if not np.isfinite(value):
                raise ValueError(f"job {job_id}: {field} must be finite, got {value}")
        check_positive("duration", duration)
        _, (start,), (end,), nodes = self._place(
            [0], [float(submit)], [int(n_nodes)], [float(duration)]
        )
        record = JobRecord(float(submit), start, end, float(n_nodes), int(job_id))
        return ScheduledJob(record=record, nodes=np.array(nodes, dtype=np.intp))

    def _order(self, by_submit: List[int], submits, widths, durations) -> Iterable[int]:
        """Batch indices in placement order: FCFS takes them as submitted.
        Each yielded job is placed before the next is asked for."""
        return by_submit

    def schedule_all(
        self,
        submits: Sequence[float],
        n_nodes: Sequence[int],
        durations: Sequence[float],
    ) -> JobLog:
        """Schedule a batch of jobs; ``job_id`` is each job's placement rank."""
        submits_arr = np.asarray(submits, dtype=float)
        widths_arr = np.asarray(n_nodes, dtype=int)
        durations_arr = np.asarray(durations, dtype=float)
        if not (len(submits_arr) == len(widths_arr) == len(durations_arr)):
            raise ValueError("submits, n_nodes and durations must be equally long")
        if len(widths_arr):
            self._check_width(int(widths_arr.max()))
            self._check_width(int(widths_arr.min()))
        for field, values in (("submit", submits_arr), ("duration", durations_arr)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"job {bad[0]}: {field} must be finite, got {values[bad[0]]}")
        bad = np.flatnonzero(durations_arr <= 0)
        if bad.size:
            check_positive(f"job {bad[0]}: duration", float(durations_arr[bad[0]]))
        submits, widths, durations = (a.tolist() for a in (submits_arr, widths_arr, durations_arr))
        by_submit = np.argsort(submits_arr, kind="stable").tolist()
        order, starts, ends, _ = self._place(
            self._order(by_submit, submits, widths, durations), submits, widths, durations
        )
        return JobLog(
            job_id=range(len(order)),
            submit=submits_arr[order],
            start=starts,
            end=ends,
            n_nodes=widths_arr[order],
        )


class BackfillScheduler(ClusterScheduler):
    """EASY-style conservative backfill over the same node-pool model.

    Jobs are still taken in submission order, but whenever the queue head
    cannot start immediately a reservation is computed for it, and shorter
    jobs further down the queue (up to ``backfill_depth`` positions) may
    jump ahead provided they finish no later than the reserved start — so
    the head job is never delayed.  Backfilled allocations only raise node
    availability up to the reservation time, which keeps the guarantee
    conservative in this earliest-free-node model.
    """

    def __init__(self, n_nodes: int, backfill_depth: int = 32) -> None:
        super().__init__(n_nodes)
        check_positive("backfill_depth", backfill_depth)
        self.backfill_depth = int(backfill_depth)

    def _order(self, by_submit: List[int], submits, widths, durations) -> Iterator[int]:
        """Submission order, except that one shorter job may slide in front
        of a waiting head's reservation before the head is re-evaluated."""
        queue = deque(by_submit)
        times = self._free_times  # placements edit it in place
        while queue:
            head = queue[0]
            reservation = max(submits[head], max(times[widths[head] - 1], 0.0))
            pick = 0
            if reservation > submits[head]:
                # The widths were checked up front, so this inlines
                # ``earliest_start`` without its check.
                for pos, cand in enumerate(islice(queue, 1, 1 + self.backfill_depth), 1):
                    cand_start = max(submits[cand], max(times[widths[cand] - 1], 0.0))
                    if cand_start + durations[cand] <= reservation:
                        pick = pos
                        break
            job = queue[pick]
            del queue[pick]
            yield job
