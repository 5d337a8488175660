"""Equivalence suite: the replay runner vs the per-event reference oracle.

``evaluate_policy`` — batched ``decide_rows`` decisions over the replay
panel (and, for cost-dependent policies under restartable jobs, the
speculative renewal walk), scored by the segmented-scan accounting — must
produce *identical* ``PolicyEvaluation`` objects to the per-event replay of
``replay_reference.py`` for every built-in policy, over generated traces,
all restartable/cost combinations.  The runner's replay of a built-in fails
if it calls ``decide``, so a ``decide_rows`` that wrongly declined (and
sent the replay down the ``decide()`` loop) cannot pass.  Policies without
``decide_rows`` (user-registered customs) must silently take the
``decide()`` loop, be scored by the same accounting and still match the
oracle, including through the approach registry.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.fleet import SegmentedFleetPolicy
from repro.baselines.myopic import MyopicRFPolicy
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.baselines.static import (
    AlwaysMitigatePolicy,
    NeverMitigatePolicy,
    OraclePolicy,
    PeriodicMitigatePolicy,
)
from repro.config import ScenarioConfig
from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.features import StateNormalizer
from repro.core.policies import CallablePolicy, MitigationPolicy, RLPolicy
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import ExperimentConfig
from repro.evaluation.registry import ApproachSpec, register_approach, unregister_approach
from repro.evaluation.runner import build_traces, evaluate_policy
from repro.telemetry.topology import FleetSegment
from repro.utils.timeutils import DAY, HOUR

from .replay_reference import assert_matches_reference, evaluate_policy_reference


@pytest.fixture(scope="module")
def traces(feature_tracks, job_sampler):
    """A realistic multi-node trace set from the session-scoped small log."""
    times = [track.times for track in feature_tracks.values() if len(track)]
    t_max = max(float(t[-1]) for t in times)
    return build_traces(
        feature_tracks, job_sampler, 0.4 * t_max, t_max + 1.0, seed=97
    )


@pytest.fixture(scope="module")
def sc20_policy(feature_tracks):
    dataset = build_prediction_dataset(
        feature_tracks, prediction_window_seconds=DAY, t_start=0.0, t_end=50 * DAY
    )
    forest = train_sc20_forest(dataset, n_estimators=8, max_depth=6, seed=5)
    return SC20RandomForestPolicy(forest, threshold=0.4)


def _rl_policy(normalizer, seed, mitigate_bias=0.0):
    agent = DDDQNAgent(
        normalizer.state_dim, DQNConfig(hidden_sizes=(24, 12), seed=seed)
    )
    # Shift the advantage head so different fixtures cover sparse, moderate
    # and dense mitigation regimes (the renewal walk behaves differently in
    # each).
    agent.online.advantage_b[:] = [-mitigate_bias, 0.0]
    agent.target.copy_from(agent.online)
    return RLPolicy(agent, normalizer)


@contextmanager
def _decide_forbidden(policy):
    """Make ``decide`` raise on ``policy`` and on a Fleet-mix's sub-policies."""
    def forbidden(context):
        raise AssertionError(f"{policy.name}: the batched replay called decide")

    patched = [policy]
    if isinstance(policy, SegmentedFleetPolicy):
        patched += policy.segment_policies
    for target in patched:
        target.decide = forbidden
    try:
        yield
    finally:
        for target in patched:
            target.__dict__.pop("decide", None)


def _assert_paths_identical(
    traces, policy, mitigation_cost, restartable, batched=True, **kwargs
):
    """The runner's replay matches the per-event oracle bit for bit;
    ``batched`` forbids ``decide`` during the runner's replay (the policy
    must answer through ``decide_rows``)."""
    reference = evaluate_policy_reference(
        traces, policy, mitigation_cost, restartable=restartable, **kwargs
    )
    with _decide_forbidden(policy) if batched else nullcontext():
        evaluation = evaluate_policy(
            traces, policy, mitigation_cost, restartable=restartable, **kwargs
        )
    assert_matches_reference(reference, evaluation)
    return reference


class TestScalarVectorEquivalence:
    @pytest.mark.parametrize("restartable", [True, False])
    @pytest.mark.parametrize("cost", [2 / 60.0, 10 / 60.0, 0.0])
    def test_static_family(self, traces, restartable, cost):
        for policy in (
            NeverMitigatePolicy(),
            AlwaysMitigatePolicy(),
            OraclePolicy(),
            PeriodicMitigatePolicy(12.0),
            PeriodicMitigatePolicy(0.01),  # mitigates at nearly every event
        ):
            _assert_paths_identical(traces, policy, cost, restartable)

    @pytest.mark.parametrize("restartable", [True, False])
    @pytest.mark.parametrize("threshold", [0.1, 0.4, 0.9])
    def test_sc20_thresholds(self, traces, sc20_policy, restartable, threshold):
        _assert_paths_identical(
            traces, sc20_policy.with_threshold(threshold), 2 / 60.0, restartable
        )

    @pytest.mark.parametrize("restartable", [True, False])
    @pytest.mark.parametrize("cost", [2 / 60.0, 10 / 60.0, 0.0])
    def test_myopic_cost_feedback(self, traces, sc20_policy, restartable, cost):
        result = _assert_paths_identical(
            traces, MyopicRFPolicy(sc20_policy, cost), cost, restartable
        )
        assert result.n_decision_points > 0

    @pytest.mark.parametrize("restartable", [True, False])
    @pytest.mark.parametrize("bias", [-3.0, 0.0, 3.0])
    def test_rl_cost_feedback(self, traces, normalizer, restartable, bias):
        policy = _rl_policy(normalizer, seed=int(17 + bias), mitigate_bias=bias)
        _assert_paths_identical(traces, policy, 2 / 60.0, restartable)

    @pytest.mark.parametrize("restartable", [True, False])
    def test_rl_custom_normalizer(self, traces, restartable):
        """A normalizer whose feature columns depend on the cost is not
        pre-normalised per panel: its rows go through ``decide_nodes``."""

        class _CostScaledNormalizer(StateNormalizer):
            def transform(self, state):
                out = super().transform(state)
                return out * (1.0 + out[..., -1:])

        policy = _rl_policy(_CostScaledNormalizer(), seed=29, mitigate_bias=1.0)
        result = _assert_paths_identical(traces, policy, 2 / 60.0, restartable)
        assert 0 < result.costs.n_mitigations < result.n_decision_points

    @pytest.mark.parametrize("restartable", [True, False])
    def test_fleet_mix(self, scenario, traces, sc20_policy, restartable):
        """Fleet-mix routes each segment's rows to its sub-policy's
        ``decide_rows``: SC20, Myopic-RF, Always and Oracle segments."""
        quarter = scenario.topology.n_nodes // 4
        topology = replace(
            scenario.topology,
            segments=tuple(
                FleetSegment(name=f"s{k}", n_nodes=quarter, manufacturer=k % 3)
                for k in range(4)
            ),
        )
        sc20 = sc20_policy.with_threshold(0.4)
        policy = SegmentedFleetPolicy(
            topology,
            [
                sc20,
                MyopicRFPolicy(sc20, 2 / 60.0),
                AlwaysMitigatePolicy(),
                OraclePolicy(),
            ],
        )
        segments = {int(topology.node_segment()[trace.node]) for trace in traces}
        assert segments == {0, 1, 2, 3}
        assert policy.cost_dependent
        _assert_paths_identical(traces, policy, 2 / 60.0, restartable)

    def test_mitigation_overhead_edge(self, traces):
        """Zero overhead makes same-timestamp completions an edge case."""
        _assert_paths_identical(
            traces,
            OraclePolicy(),
            0.0,
            True,
            mitigation_overhead_seconds=0.0,
        )


class _ThresholdOnCostPolicy(MitigationPolicy):
    """A decide()-only policy (no decide_rows): the fallback must carry it.

    Mitigates when the potential UE cost exceeds a threshold — deliberately
    cost-dependent, so under restartable jobs its decisions feed back into
    the costs, the hardest case for any shortcut to get wrong.
    """

    name = "Cost-threshold"

    def __init__(self, threshold_node_hours: float) -> None:
        self.threshold = float(threshold_node_hours)

    def decide(self, context) -> bool:
        return context.ue_cost > self.threshold


class TestScalarFallback:
    @pytest.mark.parametrize("restartable", [True, False])
    def test_decide_only_policy_evaluates_identically(self, traces, restartable):
        """The ``decide()`` loop's mask, scored by the panel accounting."""
        for policy in (
            _ThresholdOnCostPolicy(5.0),
            CallablePolicy(lambda ctx: ctx.event_index % 3 == 0, name="every-3rd"),
        ):
            _assert_paths_identical(
                traces, policy, 2 / 60.0, restartable, batched=False
            )

    @pytest.mark.parametrize("restartable", [True, False])
    def test_decide_only_cost_rule_matches_the_oracle(self, traces, restartable):
        """A ``decide()``-only rule on ``ctx.ue_cost``: under restartable
        jobs its own mitigations lower the costs it reads, and a long
        overhead leaves mitigations incomplete at the UE they precede —
        costs, UE totals and confusion counts must still match the oracle
        bit for bit, under a short and a long overhead."""
        policy = CallablePolicy(lambda ctx: ctx.ue_cost > 20.0, name="cost>20")
        short, long = (
            _assert_paths_identical(
                traces,
                policy,
                2 / 60.0,
                restartable,
                batched=False,
                mitigation_overhead_seconds=overhead,
            )
            for overhead in (120.0, 6 * HOUR)
        )
        assert 0 < short.costs.n_mitigations < short.n_decision_points
        assert 0 < long.confusion.true_positives < short.confusion.true_positives

    def test_decide_rows_declines_on_base_class(self):
        policy = _ThresholdOnCostPolicy(1.0)
        assert policy.decide_rows(np.arange(3), np.ones(3)) is None

    @pytest.mark.parametrize("restartable", [True, False])
    def test_full_trace_only_cost_dependent_policy_falls_back(
        self, traces, restartable
    ):
        """A cost-dependent policy that declines all but whole-panel row
        requests must abort the renewal walk mid-panel and fall back to the
        ``decide()`` loop — not have its ``None`` coerced into all-False
        decisions."""

        class _FullTraceOnly(MitigationPolicy):
            name = "full-trace-only"
            cost_dependent = True

            def decide(self, context) -> bool:
                return context.ue_cost > 2.0

            def prepare_traces(self, traces) -> None:
                self.n_rows = sum(len(trace) for trace in traces)

            def decide_rows(self, rows, ue_costs):
                if not np.array_equal(rows, np.arange(self.n_rows)):
                    return None
                return np.asarray(ue_costs) > 2.0

        _assert_paths_identical(
            traces, _FullTraceOnly(), 2 / 60.0, restartable, batched=False
        )

    def test_registry_registered_custom_policy_runs_through_experiment(self):
        """A registered approach without decide_rows completes an
        experiment via the ``decide()`` loop."""
        spec = register_approach(
            ApproachSpec(
                name="Cost-threshold",
                build=lambda ctx, config, rng: _ThresholdOnCostPolicy(5.0),
                group="custom-threshold",
                order=90,
            )
        )
        try:
            scenario = ScenarioConfig.small(seed=7).with_duration(30 * DAY)
            config = ExperimentConfig(
                include_rf=False,
                include_rl=False,
                include_myopic=False,
                include_oracle=False,
                include_static=True,
                charge_training_time=False,
            )
            result = run_experiment(scenario, config)
            assert "Cost-threshold" in result.approaches
            custom = result.approaches["Cost-threshold"].total_costs
            never = result.approaches["Never-mitigate"].total_costs
            assert custom.n_ues == never.n_ues
            assert custom.n_mitigations > 0
        finally:
            unregister_approach(spec.name)
