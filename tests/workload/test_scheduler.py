"""Tests for the FCFS cluster scheduler and the schedulers' input checks."""

import numpy as np
import pytest

from repro.utils.timeutils import HOUR
from repro.workload.job import JobLog
from repro.workload.scheduler import BackfillScheduler, ClusterScheduler


class TestSchedule:
    def test_job_starts_at_submit_when_cluster_free(self):
        scheduler = ClusterScheduler(n_nodes=8)
        job = scheduler.schedule(submit=100.0, n_nodes=4, duration=HOUR)
        assert job.record.start == pytest.approx(100.0)
        assert job.n_nodes == 4

    def test_job_waits_when_cluster_busy(self):
        scheduler = ClusterScheduler(n_nodes=4)
        first = scheduler.schedule(submit=0.0, n_nodes=4, duration=HOUR)
        second = scheduler.schedule(submit=10.0, n_nodes=2, duration=HOUR)
        assert second.record.start == pytest.approx(first.record.end)

    def test_small_job_backfills_free_nodes(self):
        scheduler = ClusterScheduler(n_nodes=4)
        scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        second = scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        # Two free nodes remain, so the second job does not wait.
        assert second.record.start == pytest.approx(0.0)

    def test_allocated_nodes_do_not_overlap_in_time(self):
        scheduler = ClusterScheduler(n_nodes=6)
        jobs = [
            scheduler.schedule(submit=0.0, n_nodes=3, duration=HOUR, job_id=job_id)
            for job_id in range(4)
        ]
        intervals = {}
        for job in jobs:
            for node in job.nodes:
                intervals.setdefault(node, []).append(
                    (job.record.start, job.record.end)
                )
        for spans in intervals.values():
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert s2 >= e1 - 1e-9

    def test_rejects_oversized_job(self):
        scheduler = ClusterScheduler(n_nodes=2)
        with pytest.raises(ValueError):
            scheduler.schedule(submit=0.0, n_nodes=3, duration=HOUR)

    def test_rejects_non_positive_duration(self):
        scheduler = ClusterScheduler(n_nodes=2)
        with pytest.raises(ValueError):
            scheduler.schedule(submit=0.0, n_nodes=1, duration=0.0)

    def test_reset(self):
        scheduler = ClusterScheduler(n_nodes=2)
        scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        scheduler.reset()
        job = scheduler.schedule(submit=0.0, n_nodes=2, duration=HOUR)
        assert job.record.start == pytest.approx(0.0)

    def test_schedule_all_requires_aligned_arrays(self):
        scheduler = ClusterScheduler(n_nodes=2)
        with pytest.raises(ValueError):
            scheduler.schedule_all([0.0], [1, 1], [HOUR])

    def test_schedule_all_returns_the_job_log(self):
        scheduler = ClusterScheduler(n_nodes=4)
        log = scheduler.schedule_all(
            submits=[0.0, 5.0], n_nodes=[2, 2], durations=[HOUR, HOUR]
        )
        assert isinstance(log, JobLog)
        assert len(log) == 2
        assert log.total_node_hours() == pytest.approx(4.0)
        np.testing.assert_array_equal(log.job_id, [0, 1])

    def test_earliest_start_reads_the_nth_free_node(self):
        scheduler = ClusterScheduler(n_nodes=3)
        scheduler.schedule(submit=0.0, n_nodes=1, duration=100.0)
        scheduler.schedule(submit=0.0, n_nodes=1, duration=50.0)
        assert scheduler.earliest_start(10.0, 1) == 10.0
        assert scheduler.earliest_start(10.0, 2) == 50.0
        assert scheduler.earliest_start(10.0, 3) == 100.0
        with pytest.raises(ValueError, match="cluster has 3"):
            scheduler.earliest_start(0.0, 4)
        with pytest.raises(ValueError, match="at least one node"):
            scheduler.earliest_start(0.0, 0)


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "submit, duration, field",
        [
            (float("nan"), HOUR, "submit"),
            (float("inf"), HOUR, "submit"),
            (0.0, float("inf"), "duration"),
            (0.0, float("nan"), "duration"),
        ],
    )
    def test_schedule_rejects_and_leaves_the_cluster_untouched(
        self, submit, duration, field
    ):
        scheduler = ClusterScheduler(n_nodes=4)
        with pytest.raises(ValueError, match=f"job 9: {field} must be finite"):
            scheduler.schedule(submit, 2, duration, job_id=9)
        job = scheduler.schedule(submit=0.0, n_nodes=4, duration=HOUR)
        assert (job.record.start, job.record.end) == (0.0, HOUR)

    @pytest.mark.parametrize("scheduler_cls", [ClusterScheduler, BackfillScheduler])
    @pytest.mark.parametrize(
        "submits, durations, message",
        [
            ([0.0, float("nan"), 5.0], [HOUR] * 3, "job 1: submit must be finite"),
            ([0.0, 1.0, 5.0], [HOUR, HOUR, float("inf")], "job 2: duration must be finite"),
            ([0.0, 1.0, 5.0], [HOUR, 0.0, HOUR], "job 1: duration must be > 0"),
        ],
    )
    def test_schedule_all_names_the_job_and_field(
        self, scheduler_cls, submits, durations, message
    ):
        scheduler = scheduler_cls(n_nodes=4)
        with pytest.raises(ValueError, match=message):
            scheduler.schedule_all(submits, [1, 2, 4], durations)
        # Nothing was placed: the whole machine is still free at 0.
        assert scheduler.earliest_start(0.0, 4) == 0.0

    @pytest.mark.parametrize("width, message", [(5, "cluster has 4"), (0, "at least one")])
    def test_schedule_all_rejects_bad_widths_up_front(self, width, message):
        scheduler = ClusterScheduler(n_nodes=4)
        with pytest.raises(ValueError, match=message):
            scheduler.schedule_all([0.0, 1.0], [2, width], [HOUR, HOUR])
        assert scheduler.earliest_start(0.0, 4) == 0.0
