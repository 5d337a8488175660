"""Tests for the episode-based training loop."""

import numpy as np
import pytest

from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.environment import MitigationEnv
from repro.core.features import N_FEATURES, NodeFeatureTrack
from repro.core.trainer import TrainingResult, train_agent
from repro.utils.timeutils import HOUR
from repro.workload.job import JobLog, JobRecord
from repro.workload.sampling import JobSequenceSampler


@pytest.fixture()
def tiny_env():
    times = np.array([HOUR, 2 * HOUR, 3 * HOUR, 4 * HOUR])
    tracks = {
        0: NodeFeatureTrack(
            node=0,
            times=times,
            features=np.ones((4, N_FEATURES)),
            is_ue=np.array([False, False, False, True]),
        ),
        1: NodeFeatureTrack(
            node=1,
            times=times,
            features=np.zeros((4, N_FEATURES)),
            is_ue=np.zeros(4, dtype=bool),
        ),
    }
    jobs = JobLog.from_records(
        [JobRecord(submit=0, start=0, end=50 * HOUR, n_nodes=2, job_id=0)]
    )
    sampler = JobSequenceSampler(jobs, seed=0)
    return MitigationEnv(tracks, sampler, mitigation_cost=2 / 60.0, seed=2)


@pytest.fixture()
def tiny_agent(tiny_env):
    return DDDQNAgent(
        tiny_env.state_dim,
        DQNConfig(
            hidden_sizes=(8, 8), warmup_transitions=8, batch_size=4,
            epsilon_decay_steps=50, seed=0,
        ),
    )


class TestTrainAgent:
    def test_runs_requested_episodes(self, tiny_env, tiny_agent):
        result = train_agent(tiny_env, tiny_agent, n_episodes=10)
        assert result.n_episodes == 10
        assert len(result.episode_mitigations) == 10
        assert result.env_steps > 0

    def test_rewards_non_positive(self, tiny_env, tiny_agent):
        result = train_agent(tiny_env, tiny_agent, n_episodes=5)
        assert all(r <= 0 for r in result.episode_rewards)

    def test_max_steps_cap(self, tiny_env, tiny_agent):
        result = train_agent(tiny_env, tiny_agent, n_episodes=3, max_steps_per_episode=1)
        assert result.env_steps == 3

    def test_callback_invoked(self, tiny_env, tiny_agent):
        seen = []
        train_agent(
            tiny_env, tiny_agent, n_episodes=4, callback=lambda i, r: seen.append((i, r))
        )
        assert [i for i, _ in seen] == [0, 1, 2, 3]

    def test_rejects_zero_episodes(self, tiny_env, tiny_agent):
        with pytest.raises(ValueError):
            train_agent(tiny_env, tiny_agent, n_episodes=0)

    def test_agent_learning_happens(self, tiny_env, tiny_agent):
        train_agent(tiny_env, tiny_agent, n_episodes=30)
        assert tiny_agent.train_steps > 0
        assert tiny_agent.env_steps > 0


class TestTrainingResult:
    def test_mean_and_tail(self):
        result = TrainingResult(episode_rewards=[-10.0, -5.0, -1.0, -1.0])
        assert result.mean_reward == pytest.approx(-4.25)
        assert result.tail_mean_reward(0.5) == pytest.approx(-1.0)

    def test_empty_result(self):
        result = TrainingResult()
        assert result.mean_reward == 0.0
        assert result.tail_mean_reward() == 0.0
