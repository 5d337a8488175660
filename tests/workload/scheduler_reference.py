"""Scalar reference placement for the cluster schedulers.

Keeps one float per node and finds the earliest-free nodes by a stable
``argsort`` of every free time for every job, as the schedulers originally
did.  ``tests/workload/test_scheduler_equivalence.py`` pins
:class:`repro.workload.scheduler.ClusterScheduler` and
:class:`~repro.workload.scheduler.BackfillScheduler` bit for bit against it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.workload.job import JobLog, JobRecord
from repro.workload.scheduler import ScheduledJob


class ReferenceScheduler:
    """First-come-first-served placement by argsort of per-node free times."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = int(n_nodes)
        self.free_at = np.zeros(self.n_nodes, dtype=np.float64)

    def reset(self) -> None:
        self.free_at[:] = 0.0

    def earliest_start(self, submit: float, n_nodes: int) -> float:
        if n_nodes > self.n_nodes:
            raise ValueError(
                f"job requests {n_nodes} nodes but the cluster has {self.n_nodes}"
            )
        order = np.argsort(self.free_at, kind="stable")
        chosen = order[:n_nodes]
        return max(float(submit), float(self.free_at[chosen].max(initial=0.0)))

    def schedule(
        self, submit: float, n_nodes: int, duration: float, job_id: int = 0
    ) -> ScheduledJob:
        if n_nodes > self.n_nodes:
            raise ValueError(
                f"job requests {n_nodes} nodes but the cluster has {self.n_nodes}"
            )
        order = np.argsort(self.free_at, kind="stable")
        chosen = order[:n_nodes]
        start = max(float(submit), float(self.free_at[chosen].max(initial=0.0)))
        end = start + float(duration)
        self.free_at[chosen] = end
        record = JobRecord(
            submit=float(submit), start=start, end=end, n_nodes=float(n_nodes), job_id=int(job_id)
        )
        return ScheduledJob(record=record, nodes=np.sort(chosen))

    def schedule_all(
        self,
        submits: Sequence[float],
        n_nodes: Sequence[int],
        durations: Sequence[float],
    ) -> JobLog:
        submits = np.asarray(submits, dtype=float)
        n_nodes_arr = np.asarray(n_nodes, dtype=int)
        durations = np.asarray(durations, dtype=float)
        scheduled = [
            self.schedule(
                float(submits[idx]), int(n_nodes_arr[idx]), float(durations[idx]), job_id
            )
            for job_id, idx in enumerate(np.argsort(submits, kind="stable"))
        ]
        return JobLog.from_records([job.record for job in scheduled])


class ReferenceBackfillScheduler(ReferenceScheduler):
    """EASY-style conservative backfill over the argsort placement."""

    def __init__(self, n_nodes: int, backfill_depth: int = 32) -> None:
        super().__init__(n_nodes)
        self.backfill_depth = int(backfill_depth)

    def schedule_all(
        self,
        submits: Sequence[float],
        n_nodes: Sequence[int],
        durations: Sequence[float],
    ) -> JobLog:
        submits = np.asarray(submits, dtype=float)
        n_nodes_arr = np.asarray(n_nodes, dtype=int)
        durations = np.asarray(durations, dtype=float)
        queue = list(np.argsort(submits, kind="stable"))
        records: List[JobRecord] = []

        def place(idx: int) -> None:
            job = self.schedule(
                float(submits[idx]), int(n_nodes_arr[idx]), float(durations[idx]), len(records)
            )
            records.append(job.record)

        while queue:
            head = queue[0]
            reservation = self.earliest_start(float(submits[head]), int(n_nodes_arr[head]))
            if reservation > submits[head]:
                # Head must wait: try to slide one shorter job in front of
                # its reservation, then re-evaluate.
                backfilled = False
                for pos in range(1, min(len(queue), 1 + self.backfill_depth)):
                    cand = queue[pos]
                    cand_start = self.earliest_start(
                        float(submits[cand]), int(n_nodes_arr[cand])
                    )
                    if cand_start + float(durations[cand]) <= reservation:
                        place(cand)
                        queue.pop(pos)
                        backfilled = True
                        break
                if backfilled:
                    continue
            place(head)
            queue.pop(0)
        return JobLog.from_records(records)
