"""Core contribution: the RL-based adaptive mitigation controller.

This package contains the paper's primary contribution (Section 3): the
Markov-decision-process formulation of uncorrected-error mitigation control,
the per-node feature extraction of Table 1, the log-replay environment, the
dueling double deep Q-network with prioritized experience replay, the
training loop and the hyperparameter search space, plus policy wrappers
used by the evaluation harness.
"""

from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.environment import MitigationEnv
from repro.core.features import (
    FEATURE_NAMES,
    N_FEATURES,
    NodeFeatureTrack,
    OnlineFeatureState,
    OnlineStep,
    StateNormalizer,
    build_feature_tracks,
    extract_node_features,
)
from repro.core.hyperparams import HyperparameterSpace
from repro.core.mdp import Action, Transition, compute_reward
from repro.core.policies import (
    DecisionContext,
    MitigationPolicy,
    RLPolicy,
)
from repro.core.qlearning import TabularQAgent, TabularQConfig
from repro.core.replay import PrioritizedReplayBuffer, SumTree, UniformReplayBuffer
from repro.core.trainer import TrainingResult, train_agent

__all__ = [
    "Action",
    "DDDQNAgent",
    "DQNConfig",
    "DecisionContext",
    "FEATURE_NAMES",
    "HyperparameterSpace",
    "MitigationEnv",
    "MitigationPolicy",
    "N_FEATURES",
    "NodeFeatureTrack",
    "OnlineFeatureState",
    "OnlineStep",
    "PrioritizedReplayBuffer",
    "RLPolicy",
    "StateNormalizer",
    "SumTree",
    "TabularQAgent",
    "TabularQConfig",
    "TrainingResult",
    "Transition",
    "UniformReplayBuffer",
    "build_feature_tracks",
    "compute_reward",
    "extract_node_features",
    "train_agent",
]
