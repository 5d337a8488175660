"""Tests for the hyperparameter search space.

The two search rounds themselves are executor tasks, tested (narrowing
included) in ``tests/evaluation/test_rl_trial_tasks.py``.
"""

import numpy as np
import pytest

from repro.core.dqn import DQNConfig
from repro.core.hyperparams import HyperparameterSpace


class TestHyperparameterSpace:
    def test_sample_within_bounds(self):
        space = HyperparameterSpace()
        rng = np.random.default_rng(0)
        for _ in range(50):
            params = space.sample(rng)
            assert space.learning_rate[0] <= params["learning_rate"] <= space.learning_rate[1]
            assert 0.0 < params["gamma"] < 1.0
            assert params["batch_size"] in space.batch_sizes
            assert params["train_frequency"] in space.train_frequencies
            assert params["target_sync_frequency"] in space.target_sync_frequencies
            assert space.per_alphas[0] <= params["per_alpha"] <= space.per_alphas[1]

    def test_sampled_params_build_valid_config(self):
        space = HyperparameterSpace()
        params = space.sample(np.random.default_rng(1))
        config = DQNConfig().with_overrides(**params)
        assert isinstance(config, DQNConfig)

    def test_narrowed_space_contains_best(self):
        space = HyperparameterSpace()
        best = {"learning_rate": 1e-3, "gamma": 0.97}
        narrowed = space.narrowed_around(best)
        assert narrowed.learning_rate[0] <= 1e-3 <= narrowed.learning_rate[1]
        width_before = space.learning_rate[1] / space.learning_rate[0]
        width_after = narrowed.learning_rate[1] / narrowed.learning_rate[0]
        assert width_after < width_before

    def test_narrow_rejects_bad_shrink(self):
        with pytest.raises(ValueError):
            HyperparameterSpace().narrowed_around({"learning_rate": 1e-3, "gamma": 0.9}, shrink=0)
