"""Tests for the Figure 6 behaviour grid."""

import numpy as np
import pytest

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.core.features import N_FEATURES
from repro.core.policies import CallablePolicy
from repro.evaluation.behavior import behavior_grid


@pytest.fixture(scope="module")
def sc20_policy(feature_tracks):
    dataset = build_prediction_dataset(feature_tracks)
    forest = train_sc20_forest(dataset, n_estimators=5, max_depth=6, seed=0)
    return SC20RandomForestPolicy(forest, threshold=0.5)


@pytest.fixture(scope="module")
def some_features(feature_tracks):
    features = np.concatenate(
        [t.features[~t.is_ue] for t in feature_tracks.values() if len(t)]
    )
    return features[:40]


class TestBehaviorGrid:
    def test_cost_threshold_policy_produces_monotone_grid(self, sc20_policy, some_features):
        policy = CallablePolicy(lambda ctx: ctx.ue_cost >= 100.0, name="cost-threshold")
        grid = behavior_grid(
            policy, sc20_policy, some_features,
            ue_cost_range=(1.0, 1e4), n_cost_bins=6, n_probability_bins=4,
            costs_per_event=6, seed=1,
        )
        assert grid.mitigation_fraction.shape == (4, 6)
        assert grid.mean_fraction_for_cost_above(1000.0) == pytest.approx(1.0)
        assert grid.mean_fraction_for_cost_below(10.0) == pytest.approx(0.0)

    def test_counts_sum_matches_samples(self, sc20_policy, some_features):
        policy = CallablePolicy(lambda ctx: True)
        grid = behavior_grid(
            policy, sc20_policy, some_features, costs_per_event=3, n_cost_bins=5,
            n_probability_bins=5, seed=0,
        )
        assert grid.counts.sum() == len(some_features) * 3
        assert grid.overall_mitigation_rate == pytest.approx(1.0)

    def test_never_policy_rate_zero(self, sc20_policy, some_features):
        policy = CallablePolicy(lambda ctx: False)
        grid = behavior_grid(
            policy, sc20_policy, some_features, costs_per_event=2, seed=0
        )
        assert grid.overall_mitigation_rate == 0.0

    def test_empty_cells_are_nan(self, sc20_policy, some_features):
        grid = behavior_grid(
            CallablePolicy(lambda ctx: True), sc20_policy, some_features,
            costs_per_event=1, n_cost_bins=4, n_probability_bins=10, seed=0,
        )
        # With few samples, at least one probability bin is empty.
        assert np.isnan(grid.mitigation_fraction).any()
        assert np.all(grid.counts[np.isnan(grid.mitigation_fraction)] == 0)

    def test_rejects_bad_inputs(self, sc20_policy, some_features):
        policy = CallablePolicy(lambda ctx: True)
        with pytest.raises(ValueError):
            behavior_grid(policy, sc20_policy, np.empty((0, N_FEATURES)))
        with pytest.raises(ValueError):
            behavior_grid(policy, sc20_policy, some_features, ue_cost_range=(10.0, 1.0))
        with pytest.raises(ValueError):
            behavior_grid(policy, sc20_policy, some_features, n_cost_bins=0)
