"""Tests for the tabular Q-learning ablation agent."""

import numpy as np
import pytest

from repro.core.features import FEATURE_INDEX, N_FEATURES, StateNormalizer
from repro.core.mdp import Transition
from repro.core.policies import RLPolicy
from repro.core.qlearning import TabularQAgent, TabularQConfig


def _state(ue_cost=0.0, ces_total=0.0, warnings=0.0):
    features = np.zeros(N_FEATURES)
    features[FEATURE_INDEX["ces_total"]] = ces_total
    features[FEATURE_INDEX["ue_warnings_total"]] = warnings
    return StateNormalizer().state_vector(features, ue_cost)


class TestTabularQConfig:
    def test_defaults_valid(self):
        TabularQConfig()

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            TabularQConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TabularQConfig(gamma=1.5)


class TestTabularQAgent:
    def test_discretisation_distinguishes_cost_ranges(self):
        agent = TabularQAgent(N_FEATURES + 1)
        low = agent._discretise(_state(ue_cost=1.0))
        high = agent._discretise(_state(ue_cost=50_000.0))
        assert low != high

    def test_discretisation_distinguishes_warning_states(self):
        agent = TabularQAgent(N_FEATURES + 1)
        a = agent._discretise(_state(warnings=0))
        b = agent._discretise(_state(warnings=3))
        assert a != b

    def test_act_greedy_uses_table(self):
        agent = TabularQAgent(N_FEATURES + 1)
        state = _state(ue_cost=10.0)
        key = agent._discretise(state)
        agent._values(key)[1] = 5.0
        assert agent.act(state, explore=False) == 1

    def test_observe_moves_q_towards_reward(self):
        agent = TabularQAgent(N_FEATURES + 1, TabularQConfig(learning_rate=0.5, reward_scale=1.0))
        state = _state(ue_cost=100.0)
        for _ in range(50):
            agent.observe(
                Transition(state=state, action=0, reward=-40.0, next_state=None, done=True)
            )
            agent.observe(
                Transition(state=state, action=1, reward=-0.03, next_state=None, done=True)
            )
        q = agent.q_values(state)
        assert q[1] > q[0]
        assert q[0] == pytest.approx(-40.0, rel=0.1)

    def test_bootstrap_from_next_state(self):
        config = TabularQConfig(learning_rate=1.0, gamma=0.5, reward_scale=1.0)
        agent = TabularQAgent(N_FEATURES + 1, config)
        s1 = _state(ue_cost=1.0)
        s2 = _state(ue_cost=50_000.0)
        # Give the successor state a known value.
        agent._values(agent._discretise(s2))[:] = [-10.0, -2.0]
        agent.observe(Transition(state=s1, action=0, reward=-1.0, next_state=s2, done=False))
        assert agent.q_values(s1)[0] == pytest.approx(-1.0 + 0.5 * -2.0)

    def test_epsilon_anneals(self):
        agent = TabularQAgent(N_FEATURES + 1, TabularQConfig(epsilon_decay_steps=10))
        assert agent.epsilon == pytest.approx(1.0)
        agent.env_steps = 10
        assert agent.epsilon == pytest.approx(0.05)

    def test_visited_state_count_grows(self):
        agent = TabularQAgent(N_FEATURES + 1)
        agent.q_values(_state(ue_cost=1.0))
        agent.q_values(_state(ue_cost=1e5))
        assert agent.n_visited_states >= 2

    def test_a_policy_over_it_charges_nothing(self):
        policy = RLPolicy(TabularQAgent(N_FEATURES + 1))
        assert policy.training_cost_node_hours == 0.0
