"""Tests for node-level job timeline sampling."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import as_generator
from repro.utils.timeutils import DAY, HOUR
from repro.workload.job import JobLog, JobRecord
from repro.workload.sampling import JobSequenceSampler, NodeJobTimeline


def _simple_job_log():
    return JobLog.from_records(
        [
            JobRecord(submit=0, start=0, end=2 * HOUR, n_nodes=1, job_id=0),
            JobRecord(submit=0, start=0, end=10 * HOUR, n_nodes=100, job_id=1),
        ]
    )


class TestNodeJobTimeline:
    def _timeline(self):
        return NodeJobTimeline(
            starts=np.array([0.0, 2 * HOUR, 6 * HOUR]),
            durations=np.array([2 * HOUR, 4 * HOUR, 10 * HOUR]),
            n_nodes=np.array([4.0, 16.0, 2.0]),
        )

    def test_job_at(self):
        timeline = self._timeline()
        start, nodes = timeline.job_at(1 * HOUR)
        assert start == 0.0 and nodes == 4.0
        start, nodes = timeline.job_at(3 * HOUR)
        assert start == 2 * HOUR and nodes == 16.0

    def test_job_at_beyond_horizon_uses_last_job(self):
        timeline = self._timeline()
        start, nodes = timeline.job_at(100 * HOUR)
        assert nodes == 2.0

    def test_job_at_lookup_lists_stay_out_of_pickle_eq_and_repr(self):
        """Cached traces ship timelines to process workers: the lists
        ``job_at`` builds must not grow the pickle or change equality."""
        timeline = self._timeline()
        twin = dataclasses.replace(timeline)  # shares the arrays
        size, text = len(pickle.dumps(timeline)), repr(timeline)
        assert timeline.job_at(3 * HOUR) == (2 * HOUR, 16.0)
        assert len(pickle.dumps(timeline)) == size
        assert repr(timeline) == text
        assert timeline == twin and twin == timeline
        clone = pickle.loads(pickle.dumps(timeline))
        assert np.array_equal(clone.starts, timeline.starts)
        assert clone.job_at(3 * HOUR) == timeline.job_at(3 * HOUR)

    def test_potential_ue_cost_from_job_start(self):
        timeline = self._timeline()
        # At t = 4h the 16-node job has been running 2 hours.
        cost = timeline.potential_ue_cost(4 * HOUR, None, restartable=True)
        assert cost == pytest.approx(32.0)

    def test_potential_ue_cost_resets_after_mitigation(self):
        timeline = self._timeline()
        cost = timeline.potential_ue_cost(4 * HOUR, 3 * HOUR, restartable=True)
        assert cost == pytest.approx(16.0)

    def test_non_restartable_ignores_mitigation(self):
        timeline = self._timeline()
        cost = timeline.potential_ue_cost(4 * HOUR, 3 * HOUR, restartable=False)
        assert cost == pytest.approx(32.0)

    def test_mitigation_before_job_start_is_ignored(self):
        timeline = self._timeline()
        cost = timeline.potential_ue_cost(4 * HOUR, 1 * HOUR, restartable=True)
        assert cost == pytest.approx(32.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeJobTimeline(
                starts=np.array([1.0, 0.0]),
                durations=np.array([1.0, 1.0]),
                n_nodes=np.array([1.0, 1.0]),
            )
        with pytest.raises(ValueError):
            NodeJobTimeline(
                starts=np.array([]), durations=np.array([]), n_nodes=np.array([])
            )


class TestJobSequenceSampler:
    def test_rejects_empty_log(self):
        with pytest.raises(ValueError):
            JobSequenceSampler(JobLog.empty())

    def test_node_count_weighting(self):
        sampler = JobSequenceSampler(_simple_job_log(), seed=0)
        durations, nodes = sampler.sample_jobs(2000)
        # The 100-node job should be drawn ~100x more often than the 1-node job.
        fraction_large = np.mean(nodes == 100)
        assert fraction_large > 0.9

    def test_timeline_covers_range(self, job_sampler):
        timeline = job_sampler.sample_timeline(0.0, 5 * DAY)
        assert timeline.starts[0] <= 0.0
        assert timeline.ends[-1] >= 5 * DAY

    def test_timeline_jobs_are_back_to_back(self, job_sampler):
        timeline = job_sampler.sample_timeline(0.0, 10 * DAY)
        gaps = timeline.starts[1:] - timeline.ends[:-1]
        assert np.allclose(gaps, 0.0, atol=1e-6)

    def test_timeline_deterministic_given_rng(self, job_log):
        sampler = JobSequenceSampler(job_log, seed=0)
        a = sampler.sample_timeline(0, DAY, rng=np.random.default_rng(9))
        b = JobSequenceSampler(job_log, seed=0).sample_timeline(
            0, DAY, rng=np.random.default_rng(9)
        )
        assert np.array_equal(a.starts, b.starts)
        assert np.array_equal(a.n_nodes, b.n_nodes)

    def test_rejects_empty_range(self, job_sampler):
        with pytest.raises(ValueError):
            job_sampler.sample_timeline(DAY, DAY)

    @given(st.floats(min_value=HOUR, max_value=30 * DAY))
    @settings(max_examples=20, deadline=None)
    def test_property_cost_non_negative_over_range(self, horizon):
        sampler = JobSequenceSampler(_simple_job_log(), seed=1)
        timeline = sampler.sample_timeline(0.0, horizon)
        for t in np.linspace(0, horizon, 10):
            assert timeline.potential_ue_cost(t, None, True) >= 0.0


class _ChoiceReference:
    """Oracle: the sampler written with ``Generator.choice(p=...)``.

    ``choice`` rebuilds the CDF from ``p`` on every call; the sampler keeps
    precomputed CDFs and must consume the stream and return the draws
    exactly as these calls do.
    """

    def __init__(self, job_log: JobLog) -> None:
        weights = job_log.n_nodes.astype(float)
        self.probabilities = weights / weights.sum()
        self.durations = job_log.durations
        self.n_nodes = job_log.n_nodes
        self.size = len(job_log)

    def sample_jobs(self, size, rng):
        idx = rng.choice(self.size, size=size, p=self.probabilities)
        return self.durations[idx], self.n_nodes[idx]

    def sample_timeline(self, t_start, t_end, rng):
        length_weights = self.probabilities * self.durations
        length_weights = length_weights / length_weights.sum()
        first = int(rng.choice(self.size, p=length_weights))
        duration = float(self.durations[first])
        t = t_start - float(rng.uniform(0.0, duration))
        starts, durations, nodes = [t], [duration], [float(self.n_nodes[first])]
        t += duration
        while t < t_end:
            batch_durations, batch_nodes = self.sample_jobs(16, rng)
            for duration, n in zip(batch_durations, batch_nodes):
                starts.append(t)
                durations.append(float(duration))
                nodes.append(float(n))
                t += float(duration)
                if t >= t_end:
                    break
        return np.asarray(starts), np.asarray(durations), np.asarray(nodes)


class TestMatchesChoiceReference:
    """Cached-CDF draws are bit- and stream-identical to ``choice(p=...)``."""

    def test_sample_jobs(self, job_log):
        sampler = JobSequenceSampler(job_log, seed=3)
        reference = _ChoiceReference(job_log)
        ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
        for size in (1, 16, 5, 300, 16):
            got = sampler.sample_jobs(size, rng=ours)
            want = reference.sample_jobs(size, theirs)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert ours.random() == theirs.random()

    def test_sample_timeline_over_several_calls(self, job_log):
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        sampler = JobSequenceSampler(job_log, seed=0)
        reference = _ChoiceReference(job_log)
        for t_start, t_end in ((0.0, DAY), (3 * DAY, 10 * DAY), (HOUR, 2 * HOUR)) * 3:
            got = sampler.sample_timeline(t_start, t_end, rng=ours)
            starts, durations, nodes = reference.sample_timeline(t_start, t_end, theirs)
            assert np.array_equal(got.starts, starts)
            assert np.array_equal(got.durations, durations)
            assert np.array_equal(got.n_nodes, nodes)
        assert ours.random() == theirs.random()

    def test_internal_stream_matches_reference(self):
        sampler = JobSequenceSampler(_simple_job_log(), seed=4)
        reference = _ChoiceReference(_simple_job_log())
        theirs = as_generator(4, "job-sampler")
        for _ in range(3):
            got = sampler.sample_timeline(0.0, 3 * DAY)
            starts, _, nodes = reference.sample_timeline(0.0, 3 * DAY, theirs)
            assert np.array_equal(got.starts, starts)
            assert np.array_equal(got.n_nodes, nodes)
            got_durations, _ = sampler.sample_jobs(7)
            want_durations, _ = reference.sample_jobs(7, theirs)
            assert np.array_equal(got_durations, want_durations)


def test_timeline_of_zero_duration_jobs_is_a_one_line_error():
    log = JobLog.from_records(
        [JobRecord(submit=0, start=0, end=0, n_nodes=4, job_id=0)]
    )
    sampler = JobSequenceSampler(log, seed=0)
    assert sampler.sample_jobs(3)[1].tolist() == [4, 4, 4]
    with pytest.raises(ValueError, match="zero duration"):
        sampler.sample_timeline(0.0, DAY)
