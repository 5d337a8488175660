"""Tests for job records and the job log container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.timeutils import HOUR
from repro.workload.job import JobLog, JobRecord


class TestJobRecord:
    def test_duration_and_node_hours(self):
        job = JobRecord(submit=0.0, start=100.0, end=100.0 + 2 * HOUR, n_nodes=8)
        assert job.duration == pytest.approx(2 * HOUR)
        assert job.node_hours == pytest.approx(16.0)

    def test_rejects_start_before_submit(self):
        with pytest.raises(ValueError):
            JobRecord(submit=100.0, start=50.0, end=200.0, n_nodes=1)

    def test_rejects_end_before_start(self):
        with pytest.raises(ValueError):
            JobRecord(submit=0.0, start=100.0, end=50.0, n_nodes=1)

    def test_rejects_non_positive_nodes(self):
        with pytest.raises(ValueError):
            JobRecord(submit=0.0, start=0.0, end=1.0, n_nodes=0)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((float("nan"),) * 4, "submit"),
            ((0.0, 1.0, float("inf"), 2.0), "end"),
            ((0.0, 0.0, 1.0, float("nan")), "n_nodes"),
        ],
    )
    def test_rejects_non_finite_fields(self, fields, name):
        # Every comparison with NaN is false, so the ordering checks alone
        # would let these build.
        with pytest.raises(ValueError, match=f"job {name} must be finite"):
            JobRecord(*fields)

    def test_fractional_nodes_allowed_for_scaling(self):
        job = JobRecord(submit=0.0, start=0.0, end=HOUR, n_nodes=0.1)
        assert job.node_hours == pytest.approx(0.1)


class TestJobLog:
    def _log(self):
        return JobLog.from_records(
            [
                JobRecord(submit=0.0, start=50.0, end=50.0 + HOUR, n_nodes=4, job_id=1),
                JobRecord(submit=0.0, start=0.0, end=2 * HOUR, n_nodes=2, job_id=0),
                JobRecord(submit=10.0, start=3 * HOUR, end=5 * HOUR, n_nodes=8, job_id=2),
            ]
        )

    def test_sorted_by_start(self):
        log = self._log()
        assert np.all(np.diff(log.start) >= 0)

    def test_roundtrip_records(self):
        log = self._log()
        rebuilt = JobLog.from_records(log.to_records())
        assert rebuilt == log

    @pytest.mark.parametrize("column", ["submit", "start", "end", "n_nodes"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_columns(self, column, value):
        columns = dict(
            job_id=[0, 1],
            submit=[0.0, 0.0],
            start=[0.0, 1.0],
            end=[HOUR, 2 * HOUR],
            n_nodes=[1.0, 2.0],
        )
        columns[column] = [columns[column][0], value]
        with pytest.raises(ValueError, match="non-finite"):
            JobLog(**columns)

    def test_rejects_an_all_nan_job(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            JobLog(job_id=[0], submit=[nan], start=[nan], end=[nan], n_nodes=[nan])

    def test_total_node_hours(self):
        log = self._log()
        assert log.total_node_hours() == pytest.approx(2 * 2 + 4 * 1 + 8 * 2)

    def test_utilization(self):
        log = self._log()
        util = log.utilization(n_cluster_nodes=8, duration_seconds=5 * HOUR)
        assert util == pytest.approx((4 + 4 + 16) / 40.0)

    def test_filter_time_overlap_semantics(self):
        log = self._log()
        overlapping = log.filter_time(HOUR + 1, 2 * HOUR - 1)
        # job 0 runs 0..2h and job 1 runs 50s..1h50s: both overlap the window.
        assert len(overlapping) == 2

    def test_select_by_mask(self):
        log = self._log()
        big = log.select(log.n_nodes >= 4)
        assert len(big) == 2

    def test_empty(self):
        log = JobLog.empty()
        assert len(log) == 0
        assert log.total_node_hours() == 0.0
        assert log.utilization(4, HOUR) == 0.0

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            JobLog(job_id=[1], submit=[0.0, 1.0], start=[0.0], end=[1.0], n_nodes=[1])

    def test_inconsistent_times_rejected(self):
        with pytest.raises(ValueError):
            JobLog(job_id=[1], submit=[0.0], start=[1.0], end=[0.5], n_nodes=[1])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=1, max_value=1e6),
                st.integers(min_value=1, max_value=512),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_node_hours_match_sum(self, jobs):
        records = [
            JobRecord(submit=s, start=s, end=s + d, n_nodes=n, job_id=i)
            for i, (s, d, n) in enumerate(jobs)
        ]
        log = JobLog.from_records(records)
        assert log.total_node_hours() == pytest.approx(
            sum(r.node_hours for r in records), rel=1e-9
        )
