"""Integration tests: the full pipeline on the shared small scenario."""

import numpy as np
import pytest

from repro.baselines import (
    AlwaysMitigatePolicy,
    MyopicRFPolicy,
    NeverMitigatePolicy,
    OraclePolicy,
    SC20RandomForestPolicy,
    build_prediction_dataset,
    train_sc20_forest,
)
from repro.core import (
    DDDQNAgent,
    DQNConfig,
    MitigationEnv,
    RLPolicy,
    StateNormalizer,
    TabularQAgent,
    train_agent,
)
from repro.evaluation import build_traces, evaluate_policies, evaluate_policy
from repro.utils.timeutils import DAY


@pytest.fixture(scope="module")
def split(feature_tracks, job_sampler, scenario):
    """A single train/test split over the shared scenario data."""
    t_split = 0.6 * scenario.duration_seconds
    train_tracks = {
        node: track.slice_time(0.0, t_split) for node, track in feature_tracks.items()
    }
    train_tracks = {
        node: track
        for node, track in train_tracks.items()
        if len(track) and track.n_decision_points > 0
    }
    test_traces = build_traces(
        feature_tracks, job_sampler, t_split, scenario.duration_seconds, seed=7
    )
    return train_tracks, test_traces, t_split


class TestStaticPoliciesEndToEnd:
    def test_static_policy_cost_ordering(self, split):
        _, test_traces, _ = split
        results = evaluate_policies(
            test_traces,
            [NeverMitigatePolicy(), AlwaysMitigatePolicy(), OraclePolicy()],
            mitigation_cost=2 / 60,
        )
        never = results["Never-mitigate"].costs
        always = results["Always-mitigate"].costs
        oracle = results["Oracle"].costs
        assert oracle.total < never.total
        assert always.ue_cost <= never.ue_cost
        # Always mitigates wherever the Oracle does (and more), so its UE
        # cost lower-bounds the Oracle's; both stay below Never-mitigate.
        assert always.ue_cost <= oracle.ue_cost + 1e-6
        assert oracle.ue_cost <= never.ue_cost + 1e-6
        assert oracle.mitigation_cost < always.mitigation_cost

    def test_mitigation_cost_sweep_only_changes_overhead(self, split):
        _, test_traces, _ = split
        cheap = evaluate_policy(test_traces, AlwaysMitigatePolicy(), 2 / 60)
        expensive = evaluate_policy(test_traces, AlwaysMitigatePolicy(), 10 / 60)
        assert expensive.costs.ue_cost == pytest.approx(cheap.costs.ue_cost)
        assert expensive.costs.mitigation_cost == pytest.approx(
            5 * cheap.costs.mitigation_cost
        )


class TestForestPipeline:
    def test_sc20_beats_never_with_good_threshold(self, split, feature_tracks):
        train_tracks, test_traces, t_split = split
        dataset = build_prediction_dataset(feature_tracks, t_end=t_split)
        forest = train_sc20_forest(dataset, n_estimators=15, max_depth=8, seed=0)
        best_total = np.inf
        for threshold in np.linspace(0, 1, 11):
            policy = SC20RandomForestPolicy(forest, threshold=float(threshold))
            total = evaluate_policy(test_traces, policy, 2 / 60).costs.total
            best_total = min(best_total, total)
        never_total = evaluate_policy(test_traces, NeverMitigatePolicy(), 2 / 60).costs.total
        assert best_total < never_total

    def test_myopic_policy_runs(self, split, feature_tracks):
        train_tracks, test_traces, t_split = split
        dataset = build_prediction_dataset(feature_tracks, t_end=t_split)
        forest = train_sc20_forest(dataset, n_estimators=10, seed=1)
        sc20 = SC20RandomForestPolicy(forest, threshold=0.5)
        myopic = MyopicRFPolicy(sc20, mitigation_cost_node_hours=2 / 60)
        result = evaluate_policy(test_traces, myopic, 2 / 60)
        assert result.costs.total > 0


class TestRLPipeline:
    def test_training_and_evaluation(self, split, job_sampler):
        train_tracks, test_traces, t_split = split
        normalizer = StateNormalizer()
        env = MitigationEnv(
            train_tracks,
            job_sampler,
            mitigation_cost=2 / 60,
            t_start=0.0,
            t_end=t_split,
            normalizer=normalizer,
            seed=4,
        )
        agent = DDDQNAgent(
            env.state_dim,
            DQNConfig(
                hidden_sizes=(32, 16), warmup_transitions=64, batch_size=16,
                epsilon_decay_steps=1500, seed=2,
            ),
        )
        result = train_agent(env, agent, n_episodes=80)
        assert result.n_episodes == 80

        rl_policy = RLPolicy(agent, normalizer)
        rl = evaluate_policy(test_traces, rl_policy, 2 / 60)
        never = evaluate_policy(test_traces, NeverMitigatePolicy(), 2 / 60)
        always = evaluate_policy(test_traces, AlwaysMitigatePolicy(), 2 / 60)
        # Even a briefly trained agent must stay within the static envelope
        # and produce a valid cost accounting.
        assert rl.costs.total > 0
        assert rl.costs.n_mitigations <= always.costs.n_mitigations
        assert rl.costs.ue_cost <= never.costs.ue_cost + 1e-6

    def test_tabular_agent_in_environment(self, split, job_sampler):
        train_tracks, _, t_split = split
        normalizer = StateNormalizer()
        env = MitigationEnv(
            train_tracks, job_sampler, mitigation_cost=2 / 60,
            t_start=0.0, t_end=t_split, normalizer=normalizer, seed=5,
        )
        agent = TabularQAgent(env.state_dim)
        result = train_agent(env, agent, n_episodes=30)
        assert result.n_episodes == 30
        assert agent.n_visited_states > 1
