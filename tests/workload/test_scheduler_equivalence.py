"""Both schedulers against the argsort reference placement, bit for bit.

The sorted free-node list must place every job exactly as a stable argsort of
all per-node free times does (``scheduler_reference.py``): same start and end
floats, same nodes, same tie order, so every generated job log is unchanged.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ScenarioConfig
from repro.utils.rng import RngFactory
from repro.workload.generator import WorkloadGenerator
from repro.workload.scheduler import BackfillScheduler, ClusterScheduler

from .scheduler_reference import ReferenceBackfillScheduler, ReferenceScheduler

DISCIPLINES = {
    "fcfs": {},
    "diurnal-backfill": {"submit_pattern": "diurnal", "scheduler": "backfill"},
}


def assert_logs_identical(actual, expected):
    for name in actual.__slots__:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_state(scheduler, reference):
    order = np.argsort(reference.free_at, kind="stable")
    assert scheduler._free_nodes == order.tolist()
    assert scheduler._free_times == reference.free_at[order].tolist()
    for width in range(1, scheduler.n_nodes + 1):
        assert scheduler.earliest_start(3.0, width) == reference.earliest_start(3.0, width)


def _generate_recording(scenario, overrides):
    """Generate the scenario's job log, recording the batch it schedules."""
    calls = []
    schedule_all = ClusterScheduler.schedule_all

    def recording(self, submits, n_nodes, durations):
        batch = tuple(np.array(column) for column in (submits, n_nodes, durations))
        log = schedule_all(self, submits, n_nodes, durations)
        calls.append((self, batch, log))
        return log

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClusterScheduler, "schedule_all", recording)
        generated = WorkloadGenerator(
            dataclasses.replace(scenario.workload, **overrides),
            n_cluster_nodes=scenario.topology.n_nodes,
            duration_seconds=scenario.duration_seconds,
            seed=RngFactory(scenario.seed).stream("workload"),
        ).generate()
    (call,) = calls
    return call, generated


@pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
@pytest.mark.parametrize(
    "scenario", [ScenarioConfig.small(7), ScenarioConfig.benchmark(1)], ids=["small", "benchmark"]
)
def test_generated_streams_match_the_reference(scenario, discipline):
    (scheduler, batch, log), generated = _generate_recording(
        scenario, DISCIPLINES[discipline]
    )
    if discipline == "fcfs":
        assert type(scheduler) is ClusterScheduler
        reference = ReferenceScheduler(scheduler.n_nodes)
    else:
        assert type(scheduler) is BackfillScheduler
        reference = ReferenceBackfillScheduler(scheduler.n_nodes, scheduler.backfill_depth)
    expected = reference.schedule_all(*batch)
    assert len(expected) == len(batch[0])
    assert_logs_identical(log, expected)
    assert_same_state(scheduler, reference)
    assert_logs_identical(
        generated, expected.select(expected.start < scenario.duration_seconds)
    )


@st.composite
def job_mixes(draw):
    """A cluster size, a backfill depth and four batches rich in ties."""
    n_cluster = draw(st.integers(1, 8))
    submit = st.one_of(
        st.just(0.0), st.sampled_from([1.0, 10.0, 100.0]), st.floats(0.0, 200.0)
    )
    width = st.one_of(st.just(1), st.just(n_cluster), st.integers(1, n_cluster))
    duration = st.one_of(st.sampled_from([10.0, 20.0, 30.0]), st.floats(0.5, 100.0))
    job = st.tuples(submit, width, duration)

    def batch():
        jobs = draw(st.lists(job, max_size=30))
        return tuple(list(column) for column in zip(*jobs)) if jobs else ([], [], [])

    depth = draw(st.integers(1, 4))
    return n_cluster, depth, batch(), draw(job), batch(), batch()


@pytest.mark.parametrize("backfill", [False, True], ids=["fcfs", "backfill"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(mix=job_mixes())
def test_random_job_mixes_match_the_reference(backfill, mix):
    n_cluster, depth, first, single, second, after_reset = mix
    if backfill:
        scheduler = BackfillScheduler(n_cluster, backfill_depth=depth)
        reference = ReferenceBackfillScheduler(n_cluster, backfill_depth=depth)
    else:
        scheduler, reference = ClusterScheduler(n_cluster), ReferenceScheduler(n_cluster)

    assert_logs_identical(scheduler.schedule_all(*first), reference.schedule_all(*first))
    assert_same_state(scheduler, reference)

    placed = scheduler.schedule(*single, job_id=7)
    expected = reference.schedule(*single, job_id=7)
    assert dataclasses.astuple(placed.record) == dataclasses.astuple(expected.record)
    assert placed.nodes.dtype == expected.nodes.dtype
    assert placed.nodes.tolist() == expected.nodes.tolist()
    assert_same_state(scheduler, reference)

    assert_logs_identical(scheduler.schedule_all(*second), reference.schedule_all(*second))
    assert_same_state(scheduler, reference)

    scheduler.reset()
    reference.reset()
    assert_same_state(scheduler, reference)
    assert_logs_identical(
        scheduler.schedule_all(*after_reset), reference.schedule_all(*after_reset)
    )
    assert_same_state(scheduler, reference)
