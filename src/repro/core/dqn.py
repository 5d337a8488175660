"""Dueling double deep Q-network agent with prioritized experience replay.

This is the learning algorithm of Section 3.3: a double DQN (one online
network selects the next action, a periodically synchronised target network
evaluates it, mitigating the overestimation bias), a dueling head, Adam with
a Huber loss, ε-greedy exploration, and prioritized experience replay to deal
with the events-to-UEs class imbalance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.mdp import N_ACTIONS, Transition
from repro.core.networks import AdamOptimizer, DuelingQNetwork, huber_grad, huber_loss
from repro.core.replay import PrioritizedReplayBuffer, ReplayBatch, UniformReplayBuffer
from repro.utils.rng import as_generator
from repro.utils.validation import (
    boolean, check_fields, check_positive, fraction, non_negative, positive, sequence_of
)


@dataclass(frozen=True)
class DQNConfig:
    """Hyperparameters of the DDDQN agent.

    The subset tuned by the paper's random search (Section 4.1) is the
    learning rate, the discount factor γ, the network update and
    synchronisation frequencies, and the replay batch size / PER exponents.
    """

    hidden_sizes: Sequence[int] = sequence_of((256, 256, 128, 64), positive(kind=int))
    learning_rate: float = positive(1e-3)
    gamma: float = fraction(0.97)
    batch_size: int = positive(32, int)
    buffer_capacity: int = positive(50_000, int)
    #: Environment steps between gradient updates.
    train_frequency: int = positive(2, int)
    #: Gradient updates between hard target-network synchronisations.
    target_sync_frequency: int = positive(100, int)
    #: Steps of ε-greedy annealing from ``epsilon_start`` to ``epsilon_end``.
    epsilon_start: float = fraction(1.0)
    epsilon_end: float = fraction(0.02)
    epsilon_decay_steps: int = positive(20_000, int)
    #: Minimum stored transitions before learning starts.
    warmup_transitions: int = non_negative(256, int)
    #: Prioritized experience replay parameters.  A fairly aggressive α is
    #: needed because the terminal UE transitions are extremely rare compared
    #: with uneventful telemetry (Section 3.3.4).
    prioritized: bool = boolean(True)
    per_alpha: float = non_negative(0.7)
    per_beta0: float = fraction(0.5)
    per_epsilon: float = positive(1e-3)
    #: Anneal β to 1 over this many gradient updates.
    per_beta_steps: int = positive(20_000, int)
    #: Double and dueling switches (ablations).
    double: bool = boolean(True)
    dueling: bool = boolean(True)
    #: Rewards are divided by this factor before entering the network.
    reward_scale: float = positive(1.0)
    #: Huber transition point.  Uncorrected-error penalties are orders of
    #: magnitude larger than mitigation penalties; a small δ would clip their
    #: gradients so aggressively that the agent systematically under-estimates
    #: the risk of doing nothing, so the loss is kept close to quadratic over
    #: the realistic cost range.
    huber_delta: float = positive(50.0)
    seed: int = non_negative(0, int)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.epsilon_end > self.epsilon_start:
            raise ValueError("epsilon_end must not exceed epsilon_start")

    def with_overrides(self, **kwargs) -> "DQNConfig":
        """Copy of the config with some fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        return simple_to_dict(self, "dqn_config")

    @classmethod
    def from_dict(cls, data: Dict) -> "DQNConfig":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict

        return simple_from_dict(cls, data, "dqn_config")


@dataclass
class TrainStepStats:
    """Diagnostics of one gradient update (``selected`` is Q(s, a)), computed on
    access.  Means are ``x.sum() / n``: np.mean's arithmetic, minus dispatch."""

    td_errors: np.ndarray
    weights: np.ndarray
    selected: np.ndarray
    huber_delta: float

    @property
    def loss(self) -> float:
        losses = huber_loss(self.td_errors, self.huber_delta)
        return float((self.weights * losses).sum() / len(self.td_errors))

    @property
    def mean_abs_td_error(self) -> float:
        return float(np.abs(self.td_errors).sum() / len(self.td_errors))

    @property
    def mean_q(self) -> float:
        return float(self.selected.sum() / len(self.selected))


class DDDQNAgent:
    """The RL agent that decides when to trigger a UE mitigation."""

    def __init__(self, state_dim: int, config: Optional[DQNConfig] = None) -> None:
        check_positive("state_dim", state_dim)
        self.config = config or DQNConfig()
        cfg = self.config
        self.state_dim = int(state_dim)
        self.online = DuelingQNetwork(
            state_dim,
            hidden_sizes=cfg.hidden_sizes,
            n_actions=N_ACTIONS,
            dueling=cfg.dueling,
            seed=cfg.seed,
        )
        self.target = self.online.clone()
        self.optimizer = AdamOptimizer(cfg.learning_rate)
        if cfg.prioritized:
            self.replay = PrioritizedReplayBuffer(
                cfg.buffer_capacity,
                alpha=cfg.per_alpha,
                beta0=cfg.per_beta0,
                epsilon=cfg.per_epsilon,
                seed=cfg.seed + 1,
            )
        else:
            self.replay = UniformReplayBuffer(cfg.buffer_capacity, seed=cfg.seed + 1)
        self._rng = as_generator(cfg.seed + 2, "agent")
        self.env_steps = 0
        self.train_steps = 0

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """Current ε of the ε-greedy exploration schedule."""
        cfg = self.config
        fraction = min(1.0, self.env_steps / cfg.epsilon_decay_steps)
        return cfg.epsilon_start + fraction * (cfg.epsilon_end - cfg.epsilon_start)

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-values of a single state, shape ``(n_actions,)``."""
        return self.online.forward(state)[0]

    def act(self, state: np.ndarray, explore: bool = True) -> int:
        """Choose an action; ε-greedy when ``explore`` is True."""
        if explore and self._rng.random() < self.epsilon:
            return int(self._rng.integers(N_ACTIONS))
        return int(self.q_values(state).argmax())

    # ------------------------------------------------------------------ #
    # Learning
    # ------------------------------------------------------------------ #
    def observe(self, transition: Transition) -> Optional[TrainStepStats]:
        """Store a transition and run a gradient update when due.

        Rewards are scaled by ``1 / reward_scale`` before being stored so
        that the Huber loss operates in a reasonable numeric range; the
        scaling affects training only, never the evaluation cost accounting.
        """
        cfg = self.config
        # The replay memory copies the states into its float64 arrays.
        t = transition
        reward = t.reward / cfg.reward_scale
        self.replay.push(Transition(t.state, t.action, reward, t.next_state, t.done))
        self.env_steps += 1
        stats: Optional[TrainStepStats] = None
        if (
            len(self.replay) >= max(cfg.warmup_transitions, cfg.batch_size)
            and self.env_steps % cfg.train_frequency == 0
        ):
            stats = self.train_step()
        return stats

    def train_step(self) -> TrainStepStats:
        """One prioritized double-DQN gradient update."""
        cfg = self.config
        batch = self.replay.sample(cfg.batch_size)
        td_errors, selected = self._update_from_batch(batch)
        self.replay.update_priorities(batch.indices, td_errors)
        self.train_steps += 1
        self.replay.anneal(min(1.0, self.train_steps / cfg.per_beta_steps))
        if self.train_steps % cfg.target_sync_frequency == 0:
            self.target.copy_from(self.online)
        return TrainStepStats(td_errors, batch.weights, selected, cfg.huber_delta)

    def _update_from_batch(self, batch: ReplayBatch):
        cfg = self.config
        n = len(batch)
        rows = np.arange(n)
        q_next_online = self.online.forward(batch.next_states)
        if cfg.double:
            next_actions = np.argmax(q_next_online, axis=1)
            q_next_target = self.target.forward(batch.next_states)
            next_values = q_next_target[rows, next_actions]
        else:
            next_values = np.max(q_next_online, axis=1)
        targets = batch.rewards + cfg.gamma * (1.0 - batch.dones) * next_values

        q = self.online.forward(batch.states, cache=True)
        selected = q[rows, batch.actions]
        td_errors = selected - targets

        d_selected = batch.weights * huber_grad(td_errors, cfg.huber_delta) / n
        d_q = np.zeros_like(q)
        d_q[rows, batch.actions] = d_selected
        self.online.backward(d_q)  # fills online.grad
        self.optimizer.update([self.online.params], [self.online.grad])
        return td_errors, selected

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Online-network parameters (the policy) for checkpointing.

        A plain ``{name: contiguous ndarray}`` mapping — the unit the
        parallel experiment pipeline ships between executor tasks (the
        per-trial RL search results and the warm-start carry), so it must
        stay cheap to pickle across a process boundary.
        """
        return self.online.state_dict()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore a previously saved policy into both networks."""
        self.online.load_state_dict(state)
        self.target.copy_from(self.online)

    @classmethod
    def from_state_dict(
        cls,
        state_dim: int,
        state: Dict[str, np.ndarray],
        config: Optional[DQNConfig] = None,
    ) -> "DDDQNAgent":
        """Reconstruct an agent from a checkpointed policy, cheaply.

        The inverse of :meth:`state_dict` for the executor round-trip: the
        pipeline's select-best reduce task receives trial checkpoints from
        worker processes and needs an agent back for greedy evaluation.  The
        hidden layout is inferred from the checkpoint's array shapes (and
        overrides whatever ``config`` says, so a caller cannot silently load
        parameters into a mismatched network), and the replay buffer is
        allocated at minimal capacity: the restored agent acts greedily or
        serves as a warm-start *source* — replay transitions are not part of
        the checkpoint, so a full-size empty buffer would be pure
        allocation cost per reconstruction.
        """
        hidden_sizes = []
        for i in itertools.count():
            weight = state.get(f"hidden_{i}_w")
            if weight is None:
                break
            hidden_sizes.append(int(np.shape(weight)[-1]))
        if not hidden_sizes or int(state["hidden_0_w"].shape[0]) != int(state_dim):
            raise ValueError(
                "state dict does not describe a network over "
                f"{state_dim}-dimensional states"
            )
        config = (config or DQNConfig()).with_overrides(
            hidden_sizes=tuple(hidden_sizes),
            buffer_capacity=1,
            warmup_transitions=1,
        )
        agent = cls(state_dim, config)
        agent.load_state_dict(state)
        return agent
