"""Tests for the policy evaluation runner."""

import numpy as np
import pytest

from repro.baselines.static import (
    AlwaysMitigatePolicy,
    NeverMitigatePolicy,
    OraclePolicy,
)
from repro.core.features import N_FEATURES, NodeFeatureTrack
from repro.core.policies import CallablePolicy
from repro.evaluation.runner import (
    EvaluationTrace,
    build_traces,
    evaluate_policies,
    evaluate_policy,
)
from repro.utils.timeutils import DAY, HOUR
from repro.workload.job import JobLog, JobRecord
from repro.workload.sampling import JobSequenceSampler


@pytest.fixture()
def constant_sampler():
    log = JobLog.from_records(
        [JobRecord(submit=0, start=0, end=1000 * HOUR, n_nodes=10, job_id=0)]
    )
    return JobSequenceSampler(log, seed=0)


def _tracks():
    times = np.array([1 * HOUR, 2 * HOUR, 20 * HOUR, 21 * HOUR])
    return {
        0: NodeFeatureTrack(
            node=0,
            times=times,
            features=np.ones((4, N_FEATURES)),
            is_ue=np.array([False, False, False, True]),
        ),
        1: NodeFeatureTrack(
            node=1,
            times=np.array([5 * HOUR]),
            features=np.ones((1, N_FEATURES)),
            is_ue=np.array([False]),
        ),
    }


class TestBuildTraces:
    def test_traces_cover_nodes_in_range(self, constant_sampler):
        traces = build_traces(_tracks(), constant_sampler, 0.0, 30 * HOUR, seed=1)
        assert {t.node for t in traces} == {0, 1}

    def test_is_last_before_ue_flag(self, constant_sampler):
        traces = build_traces(_tracks(), constant_sampler, 0.0, 30 * HOUR, seed=1)
        trace0 = next(t for t in traces if t.node == 0)
        assert trace0.is_last_before_ue.tolist() == [False, False, True, False]

    def test_deterministic_job_timelines(self, constant_sampler, feature_tracks, job_sampler):
        a = build_traces(feature_tracks, job_sampler, 0.0, 10 * DAY, seed=5)
        b = build_traces(feature_tracks, job_sampler, 0.0, 10 * DAY, seed=5)
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.timeline.starts, tb.timeline.starts)
            assert np.array_equal(ta.timeline.n_nodes, tb.timeline.n_nodes)

    def test_rejects_empty_range(self, constant_sampler):
        with pytest.raises(ValueError):
            build_traces(_tracks(), constant_sampler, 10.0, 10.0)

    def test_trace_validation(self, constant_sampler):
        traces = build_traces(_tracks(), constant_sampler, 0.0, 30 * HOUR, seed=1)
        trace = traces[0]
        with pytest.raises(ValueError):
            EvaluationTrace(
                node=trace.node,
                times=trace.times,
                features=trace.features[:1],
                is_ue=trace.is_ue,
                is_last_before_ue=trace.is_last_before_ue,
                timeline=trace.timeline,
            )


class TestEvaluatePolicy:
    @pytest.fixture()
    def traces(self, constant_sampler):
        return build_traces(_tracks(), constant_sampler, 0.0, 30 * HOUR, seed=2)

    def test_never_mitigate_pays_full_ue_cost(self, traces):
        result = evaluate_policy(traces, NeverMitigatePolicy(), mitigation_cost=2 / 60)
        # The UE at 21h on a 10-node job started at or before t=0 costs at
        # least 10 * 21 = 210 node-hours.
        assert result.costs.ue_cost >= 210.0 - 1e-6
        assert result.costs.mitigation_cost == 0.0
        assert result.costs.n_ues == 1
        assert result.confusion.recall == 0.0

    def test_oracle_minimises_ue_cost(self, traces):
        oracle = evaluate_policy(traces, OraclePolicy(), mitigation_cost=2 / 60)
        never = evaluate_policy(traces, NeverMitigatePolicy(), mitigation_cost=2 / 60)
        assert oracle.costs.ue_cost < never.costs.ue_cost
        assert oracle.costs.n_mitigations == 1
        # The oracle mitigates at 20h; the UE then costs only 10 nodes x 1h.
        assert oracle.costs.ue_cost == pytest.approx(10.0, rel=1e-6)
        assert oracle.confusion.recall == 1.0
        assert oracle.confusion.precision == 1.0

    def test_always_mitigate_counts(self, traces):
        result = evaluate_policy(traces, AlwaysMitigatePolicy(), mitigation_cost=2 / 60)
        assert result.costs.n_mitigations == 4  # every non-UE event
        assert result.costs.mitigation_cost == pytest.approx(4 * 2 / 60)
        assert result.confusion.true_positives == 1
        assert result.confusion.false_positives == 3
        assert result.confusion.true_negatives == 0

    def test_non_restartable_mitigation_does_not_reduce_ue_cost(self, traces):
        always = evaluate_policy(
            traces, AlwaysMitigatePolicy(), mitigation_cost=2 / 60, restartable=False
        )
        never = evaluate_policy(
            traces, NeverMitigatePolicy(), mitigation_cost=2 / 60, restartable=False
        )
        assert always.costs.ue_cost == pytest.approx(never.costs.ue_cost)

    def test_training_cost_inclusion_flag(self, traces):
        class Costly(NeverMitigatePolicy):
            @property
            def training_cost_node_hours(self):
                return 5.0

        with_cost = evaluate_policy(traces, Costly(), mitigation_cost=0.033)
        without = evaluate_policy(
            traces, Costly(), mitigation_cost=0.033, include_training_cost=False
        )
        assert with_cost.costs.training_cost == 5.0
        assert without.costs.training_cost == 0.0

    def test_mitigation_must_complete_before_ue(self, traces):
        # A policy that mitigates only on the very last event before the UE
        # with an overhead longer than the gap gets no credit (FN), although
        # the cost accounting still benefits from the reset.
        policy = CallablePolicy(lambda ctx: ctx.is_last_event_before_ue, name="late")
        result = evaluate_policy(
            traces,
            policy,
            mitigation_cost=2 / 60,
            mitigation_overhead_seconds=2 * HOUR,
        )
        assert result.confusion.true_positives == 0
        assert result.confusion.false_negatives == 1

    def test_empty_traces(self):
        result = evaluate_policy([], NeverMitigatePolicy(), mitigation_cost=0.033)
        assert result.costs.total == 0.0
        assert result.n_traces == 0

    def test_evaluate_policies_returns_all(self, traces):
        results = evaluate_policies(
            traces,
            [NeverMitigatePolicy(), AlwaysMitigatePolicy(), OraclePolicy()],
            mitigation_cost=0.033,
        )
        assert set(results) == {"Never-mitigate", "Always-mitigate", "Oracle"}

    def test_cost_ordering_invariant(self, feature_tracks, job_sampler):
        # On realistic data: Oracle <= Always on UE cost, and Never has zero
        # mitigation cost but the largest UE cost.
        traces = build_traces(feature_tracks, job_sampler, 0.0, 60 * DAY, seed=3)
        never = evaluate_policy(traces, NeverMitigatePolicy(), 2 / 60)
        always = evaluate_policy(traces, AlwaysMitigatePolicy(), 2 / 60)
        oracle = evaluate_policy(traces, OraclePolicy(), 2 / 60)
        # Always mitigates at every event (including the one the Oracle picks),
        # so its UE cost is a lower bound on the Oracle's; the Oracle in turn
        # never does worse on UE cost than doing nothing.
        assert always.costs.ue_cost <= oracle.costs.ue_cost + 1e-6
        assert oracle.costs.ue_cost <= never.costs.ue_cost + 1e-6
        assert always.costs.ue_cost <= never.costs.ue_cost + 1e-6
        assert oracle.costs.mitigation_cost <= always.costs.mitigation_cost
        assert never.costs.mitigation_cost == 0.0
        assert always.confusion.recall >= oracle.confusion.recall - 1e-9
