"""Tests for the policy interface and the RL policy wrapper."""

import numpy as np
import pytest

from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.features import N_FEATURES, StateNormalizer
from repro.core.policies import CallablePolicy, DecisionContext, MitigationPolicy, RLPolicy


def _context(ue_cost=1.0, **kwargs):
    defaults = dict(
        time=100.0,
        node=0,
        features=np.zeros(N_FEATURES),
        ue_cost=ue_cost,
    )
    defaults.update(kwargs)
    return DecisionContext(**defaults)


class TestDecisionContext:
    def test_defaults(self):
        context = _context()
        assert context.event_index == -1
        assert context.is_last_event_before_ue is False


class TestCallablePolicy:
    def test_wraps_function(self):
        policy = CallablePolicy(lambda ctx: ctx.ue_cost > 10, name="threshold")
        assert policy.name == "threshold"
        assert policy.decide(_context(ue_cost=20)) is True
        assert policy.decide(_context(ue_cost=5)) is False

    def test_default_training_cost_zero(self):
        policy = CallablePolicy(lambda ctx: False)
        assert policy.training_cost_node_hours == 0.0

    def test_prepare_trace_is_noop(self):
        policy = CallablePolicy(lambda ctx: False)
        policy.prepare_trace(np.zeros((3, N_FEATURES)))
        policy.reset()


class TestRLPolicy:
    @pytest.fixture()
    def agent(self):
        return DDDQNAgent(
            N_FEATURES + 1,
            DQNConfig(hidden_sizes=(8,), warmup_transitions=4, batch_size=2, seed=0),
        )

    def test_decide_matches_greedy_action(self, agent):
        normalizer = StateNormalizer()
        policy = RLPolicy(agent, normalizer)
        context = _context(ue_cost=500.0)
        state = normalizer.state_vector(context.features, context.ue_cost)
        expected = agent.act(state, explore=False) == 1
        assert policy.decide(context) == expected

    @pytest.mark.parametrize("width", [N_FEATURES - 1, N_FEATURES + 1])
    def test_decide_nodes_rejects_wrong_width(self, agent, width):
        policy = RLPolicy(agent, StateNormalizer())
        with pytest.raises(ValueError):
            policy.decide_nodes(np.zeros((2, width)), np.zeros(2))

    def test_training_cost_is_the_charge_it_was_given(self, agent):
        assert RLPolicy(agent).training_cost_node_hours == 0.0
        policy = RLPolicy(agent, training_cost_node_hours=2.0)
        assert policy.training_cost_node_hours == 2.0

    def test_name_default(self, agent):
        assert RLPolicy(agent).name == "RL"

    def test_is_mitigation_policy(self, agent):
        assert isinstance(RLPolicy(agent), MitigationPolicy)
