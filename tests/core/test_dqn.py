"""Tests for the DDDQN agent."""

import numpy as np
import pytest

from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.mdp import Transition
from repro.core.replay import PrioritizedReplayBuffer, UniformReplayBuffer


def _config(**overrides):
    defaults = dict(
        hidden_sizes=(16, 8),
        warmup_transitions=8,
        batch_size=4,
        epsilon_decay_steps=50,
        buffer_capacity=256,
        seed=0,
    )
    defaults.update(overrides)
    return DQNConfig(**defaults)


def _transition(rng, state_dim=4, done=False, reward=0.0):
    state = rng.normal(size=state_dim)
    return Transition(
        state=state,
        action=int(rng.integers(2)),
        reward=reward,
        next_state=None if done else rng.normal(size=state_dim),
        done=done,
    )


class TestDQNConfig:
    def test_defaults_valid(self):
        config = DQNConfig()
        assert config.dueling and config.double and config.prioritized

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", 0),
            ("gamma", 1.5),
            ("batch_size", 0),
            ("epsilon_start", 1.2),
            ("reward_scale", 0),
            ("huber_delta", 0),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
            DQNConfig(**{field: value})

    def test_rejects_zero_per_beta_steps(self):
        # β annealing divides by it at every train step.
        with pytest.raises(ValueError, match="per_beta_steps must be > 0, got 0"):
            DQNConfig(per_beta_steps=0)

    def test_epsilon_ordering_enforced(self):
        with pytest.raises(ValueError):
            DQNConfig(epsilon_start=0.1, epsilon_end=0.5)

    def test_with_overrides(self):
        config = DQNConfig().with_overrides(learning_rate=1e-4)
        assert config.learning_rate == 1e-4


class TestAgentBasics:
    def test_replay_type_follows_config(self):
        agent = DDDQNAgent(4, _config(prioritized=True))
        assert isinstance(agent.replay, PrioritizedReplayBuffer)
        agent = DDDQNAgent(4, _config(prioritized=False))
        assert isinstance(agent.replay, UniformReplayBuffer)

    def test_epsilon_anneals(self):
        agent = DDDQNAgent(4, _config(epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_steps=10))
        assert agent.epsilon == pytest.approx(1.0)
        agent.env_steps = 5
        assert agent.epsilon == pytest.approx(0.55)
        agent.env_steps = 100
        assert agent.epsilon == pytest.approx(0.1)

    def test_act_greedy_matches_argmax(self):
        agent = DDDQNAgent(4, _config())
        state = np.ones(4)
        action = agent.act(state, explore=False)
        assert action == int(np.argmax(agent.q_values(state)))

    def test_act_explore_covers_both_actions(self):
        agent = DDDQNAgent(4, _config(epsilon_start=1.0, epsilon_end=1.0))
        actions = {agent.act(np.zeros(4), explore=True) for _ in range(50)}
        assert actions == {0, 1}

    def test_state_dict_roundtrip(self):
        agent = DDDQNAgent(4, _config(seed=1))
        other = DDDQNAgent(4, _config(seed=2))
        other.load_state_dict(agent.state_dict())
        state = np.ones(4)
        assert np.allclose(agent.q_values(state), other.q_values(state))

    def test_from_state_dict_reconstructs_the_policy_exactly(self, rng):
        # The executor round-trip of the per-trial RL search: a trained
        # agent's checkpoint crosses a process boundary and comes back as a
        # greedy-evaluation agent with bit-identical Q-values.
        agent = DDDQNAgent(4, _config(train_frequency=1))
        for _ in range(20):
            agent.observe(_transition(rng))
        restored = DDDQNAgent.from_state_dict(4, agent.state_dict())
        for _ in range(5):
            state = rng.normal(size=4)
            assert np.array_equal(agent.q_values(state), restored.q_values(state))
        # Hidden layout is inferred from the checkpoint, not the config.
        assert tuple(restored.config.hidden_sizes) == (16, 8)
        # Cheap reconstruction: no full-size empty replay buffer, and no
        # work counted (nothing trained on this instance).
        assert restored.config.buffer_capacity == 1
        assert restored.env_steps == restored.train_steps == 0

    def test_from_state_dict_rejects_mismatched_state_dim(self):
        agent = DDDQNAgent(4, _config())
        with pytest.raises(ValueError, match="dimensional"):
            DDDQNAgent.from_state_dict(7, agent.state_dict())

    def test_from_state_dict_names_a_missing_entry(self):
        state = DDDQNAgent(4, _config()).state_dict()
        del state["value_b"]
        expected = r"'value_b': expected shape \(1,\), got missing"
        with pytest.raises(ValueError, match=expected):
            DDDQNAgent.from_state_dict(4, state)

    @pytest.mark.parametrize(
        "corrupt,shape", [(lambda w: w[:1], r"\(1, 8\)"), (lambda w: w[0], r"\(8,\)")]
    )
    def test_from_state_dict_rejects_a_misshapen_entry(self, corrupt, shape):
        state = DDDQNAgent(4, _config()).state_dict()
        state["hidden_1_w"] = corrupt(state["hidden_1_w"])
        expected = rf"'hidden_1_w': expected shape \(16, 8\), got {shape}"
        with pytest.raises(ValueError, match=expected):
            DDDQNAgent.from_state_dict(4, state)


class TestLearning:
    def test_observe_trains_after_warmup(self, rng):
        agent = DDDQNAgent(4, _config(train_frequency=1))
        stats = None
        for _ in range(20):
            stats = agent.observe(_transition(rng)) or stats
        assert agent.train_steps > 0
        assert stats is not None and np.isfinite(stats.loss)

    def test_reward_scaling_applied_to_stored_transitions(self, rng):
        agent = DDDQNAgent(4, _config(reward_scale=10.0, warmup_transitions=100))
        agent.observe(
            Transition(state=np.zeros(4), action=0, reward=-50.0, next_state=None, done=True)
        )
        assert agent.replay._rewards[0] == pytest.approx(-5.0)

    def test_target_network_syncs(self, rng):
        agent = DDDQNAgent(4, _config(train_frequency=1, target_sync_frequency=5))
        for _ in range(40):
            agent.observe(_transition(rng))
        state = np.ones(4)
        # After a sync the target equals the online network for several steps;
        # just check the sync happened at least once and values are finite.
        assert agent.train_steps >= 5
        assert np.all(np.isfinite(agent.target.forward(state)))

    def test_learns_simple_contrast(self):
        # One state: action 1 always yields 0, action 0 always yields -10.
        # After training, the agent must prefer action 1.
        config = _config(
            train_frequency=1,
            gamma=0.9,
            learning_rate=5e-3,
            epsilon_decay_steps=10,
            target_sync_frequency=20,
        )
        agent = DDDQNAgent(3, config)
        state = np.array([1.0, 0.5, 0.2])
        rng = np.random.default_rng(0)
        for _ in range(300):
            action = int(rng.integers(2))
            reward = 0.0 if action == 1 else -10.0
            agent.observe(
                Transition(state=state, action=action, reward=reward, next_state=None, done=True)
            )
        q = agent.q_values(state)
        assert q[1] > q[0]
        assert agent.act(state, explore=False) == 1

    def test_work_counts_accumulate(self, rng):
        agent = DDDQNAgent(4, _config(train_frequency=1))
        for _ in range(30):
            agent.observe(_transition(rng))
        assert agent.env_steps == 30
        assert agent.train_steps > 0

    def test_double_disabled_still_trains(self, rng):
        agent = DDDQNAgent(4, _config(double=False, dueling=False, train_frequency=1))
        for _ in range(30):
            agent.observe(_transition(rng))
        assert agent.train_steps > 0
