"""Tabular Q-learning agent over a discretised state (ablation / extension).

The paper argues that the state space is effectively continuous and therefore
approximates the Q-function with a deep network.  This module provides the
obvious simpler alternative — a tabular agent over a coarse discretisation of
the most informative features — so that the benefit of the function
approximator can be quantified (``benchmarks/test_ablation_tabular.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.features import FEATURE_INDEX, N_FEATURES
from repro.core.mdp import N_ACTIONS
from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_fields, check_positive, fraction, non_negative, number, positive, sequence_of
)


@dataclass(frozen=True)
class TabularQConfig:
    """Hyperparameters of the tabular agent."""

    learning_rate: float = positive(0.1)
    gamma: float = fraction(0.97)
    epsilon_start: float = fraction(1.0)
    epsilon_end: float = fraction(0.05)
    epsilon_decay_steps: int = positive(20_000, int)
    #: Bin edges (log10 node–hours) of the potential-UE-cost feature.
    ue_cost_bins: Tuple[float, ...] = sequence_of((0.0, 1.0, 2.0, 3.0, 4.0), number())
    #: Bin edges (log10 count) of the cumulative CE count.
    ce_bins: Tuple[float, ...] = sequence_of((0.0, 1.0, 2.0, 3.0), number())
    reward_scale: float = positive(100.0)
    seed: int = non_negative(0, int)

    def __post_init__(self) -> None:
        check_fields(self)


class TabularQAgent:
    """Q-learning over (UE-cost bin, CE bin, warnings flag, recent-boot flag).

    The interface mirrors :class:`~repro.core.dqn.DDDQNAgent` closely enough
    that :func:`repro.core.trainer.train_agent` and
    :class:`~repro.core.policies.RLPolicy` work with either, but the state
    passed in must be the *normalised* state vector produced by
    :class:`~repro.core.features.StateNormalizer` (the same one the deep
    agent consumes), from which the discretisation is derived.
    """

    def __init__(self, state_dim: int, config: Optional[TabularQConfig] = None) -> None:
        check_positive("state_dim", state_dim)
        self.config = config or TabularQConfig()
        self.state_dim = int(state_dim)
        self._q: Dict[Tuple[int, ...], np.ndarray] = {}
        self._rng = as_generator(self.config.seed, "tabular")
        self.env_steps = 0
        self.train_steps = 0

    # ------------------------------------------------------------------ #
    def _discretise(self, state: np.ndarray) -> Tuple[int, ...]:
        state = np.asarray(state, dtype=float).ravel()
        cfg = self.config
        # The normalised state stores log1p-compressed values; convert the
        # compressed value back to a log10 order of magnitude.
        ue_cost_log10 = state[-1] / np.log(10.0)
        ces_log10 = state[FEATURE_INDEX["ces_total"]] / np.log(10.0)
        ue_bin = int(np.digitize(ue_cost_log10, cfg.ue_cost_bins))
        ce_bin = int(np.digitize(ces_log10, cfg.ce_bins))
        warnings_flag = int(state[FEATURE_INDEX["ue_warnings_total"]] > 0)
        boot_flag = int(
            state[FEATURE_INDEX["time_since_boot"]] < np.log1p(24 * 3600.0)
        )
        return (ue_bin, ce_bin, warnings_flag, boot_flag)

    def _values(self, key: Tuple[int, ...]) -> np.ndarray:
        if key not in self._q:
            self._q[key] = np.zeros(N_ACTIONS)
        return self._q[key]

    @property
    def epsilon(self) -> float:
        cfg = self.config
        fraction = min(1.0, self.env_steps / cfg.epsilon_decay_steps)
        return cfg.epsilon_start + fraction * (cfg.epsilon_end - cfg.epsilon_start)

    @property
    def n_visited_states(self) -> int:
        """Number of distinct discretised states seen so far."""
        return len(self._q)

    def q_values(self, state: np.ndarray) -> np.ndarray:
        """Q-values of the discretised state."""
        return self._values(self._discretise(state)).copy()

    def act(self, state: np.ndarray, explore: bool = True) -> int:
        if explore and self._rng.random() < self.epsilon:
            return int(self._rng.integers(N_ACTIONS))
        return int(np.argmax(self.q_values(state)))

    def observe(self, transition) -> None:
        """Standard one-step Q-learning update."""
        cfg = self.config
        self.env_steps += 1
        key = self._discretise(transition.state)
        values = self._values(key)
        reward = transition.reward / cfg.reward_scale
        if transition.done or transition.next_state is None:
            target = reward
        else:
            next_values = self._values(self._discretise(transition.next_state))
            target = reward + cfg.gamma * float(np.max(next_values))
        values[transition.action] += cfg.learning_rate * (
            target - values[transition.action]
        )
        self.train_steps += 1
