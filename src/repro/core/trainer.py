"""Episode-based training loop for the mitigation agent (Section 3.3.3).

Training is divided into episodes; each episode picks a random node, assigns
it a random (node-count-weighted) job sequence, and replays its telemetry
events from the beginning to the end of the training range.  The paper trains
each candidate agent for 20,000 episodes; the loop below is the same
procedure with a configurable episode budget so tests and benchmarks can run
a scaled-down schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.dqn import DDDQNAgent
from repro.core.environment import MitigationEnv
from repro.core.mdp import Transition
from repro.utils.validation import check_positive


@dataclass
class TrainingResult:
    """Statistics accumulated over a training run."""

    episode_rewards: List[float] = field(default_factory=list)
    episode_mitigations: List[int] = field(default_factory=list)
    episode_ue_hits: List[bool] = field(default_factory=list)
    env_steps: int = 0

    @property
    def n_episodes(self) -> int:
        return len(self.episode_rewards)

    @property
    def mean_reward(self) -> float:
        """Mean episode reward (0 if no episodes were run)."""
        if not self.episode_rewards:
            return 0.0
        return float(np.mean(self.episode_rewards))

    def tail_mean_reward(self, fraction: float = 0.25) -> float:
        """Mean reward of the last ``fraction`` of episodes (convergence probe)."""
        if not self.episode_rewards:
            return 0.0
        n = max(1, int(len(self.episode_rewards) * fraction))
        return float(np.mean(self.episode_rewards[-n:]))


def train_agent(
    env: MitigationEnv,
    agent: DDDQNAgent,
    n_episodes: int,
    max_steps_per_episode: Optional[int] = None,
    callback: Optional[Callable[[int, float], None]] = None,
) -> TrainingResult:
    """Train ``agent`` on ``env`` for ``n_episodes`` episodes.

    Parameters
    ----------
    env:
        The mitigation environment, already restricted to the training range.
    agent:
        The agent to train (modified in place).
    n_episodes:
        Number of episodes ("runs" of random nodes) to execute.
    max_steps_per_episode:
        Optional safety cap on the number of decisions per episode.
    callback:
        Optional ``callback(episode_index, episode_reward)`` hook.
    """
    check_positive("n_episodes", n_episodes)
    result = TrainingResult()

    for episode in range(int(n_episodes)):
        state = env.reset()
        episode_reward = 0.0
        steps = 0
        done = False
        while not done:
            action = agent.act(state, explore=True)
            next_state, reward, done, info = env.step(action)
            agent.observe(
                Transition(
                    state=state,
                    action=action,
                    reward=reward,
                    next_state=next_state,
                    done=done,
                )
            )
            episode_reward += reward
            steps += 1
            result.env_steps += 1
            if not done:
                state = next_state
            if max_steps_per_episode is not None and steps >= max_steps_per_episode:
                break
        summary = env.episode_summary()
        result.episode_rewards.append(episode_reward)
        result.episode_mitigations.append(summary.n_mitigations)
        result.episode_ue_hits.append(summary.ue_occurred)
        if callback is not None:
            callback(episode, episode_reward)
    return result
