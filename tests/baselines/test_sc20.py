"""Tests for the SC20-RF policy."""

import numpy as np
import pytest

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.core.features import N_FEATURES
from repro.core.policies import DecisionContext


@pytest.fixture(scope="module")
def trained(feature_tracks):
    dataset = build_prediction_dataset(feature_tracks)
    forest = train_sc20_forest(dataset, n_estimators=10, max_depth=8, seed=0)
    return forest, dataset


def _context(features, ue_cost=10.0, index=-1):
    return DecisionContext(
        time=0.0, node=0, features=features, ue_cost=ue_cost, event_index=index
    )


class TestTrainSC20Forest:
    def test_returns_a_fitted_forest(self, trained):
        forest, _ = trained
        assert forest.is_fitted
        assert len(forest.trees_) == forest.n_estimators

    def test_rejects_empty_dataset(self):
        from repro.baselines.dataset import PredictionDataset

        empty = PredictionDataset(
            X=np.empty((0, N_FEATURES)), y=np.empty(0), nodes=np.empty(0, dtype=int),
            times=np.empty(0),
        )
        with pytest.raises(ValueError):
            train_sc20_forest(empty)

    def test_forest_separates_positive_samples(self, trained):
        forest, dataset = trained
        policy = SC20RandomForestPolicy(forest)
        probabilities = policy.predict_probabilities(dataset.X)
        if dataset.n_positives > 0:
            positives = probabilities[dataset.y == 1].mean()
            negatives = probabilities[dataset.y == 0].mean()
            assert positives > negatives


class TestSC20Policy:
    def test_threshold_controls_decision(self, trained):
        forest, dataset = trained
        features = dataset.X[int(np.argmax(dataset.y))]
        eager = SC20RandomForestPolicy(forest, threshold=0.0)
        reluctant = SC20RandomForestPolicy(forest, threshold=1.0)
        assert eager.decide(_context(features)) is True
        probability = eager.predict_probability(features)
        assert reluctant.decide(_context(features)) is (probability >= 1.0)

    @pytest.mark.parametrize("width", [N_FEATURES - 1, N_FEATURES + 1])
    def test_predict_probabilities_rejects_wrong_width(self, trained, width):
        policy = SC20RandomForestPolicy(trained[0], threshold=0.5)
        with pytest.raises(ValueError, match="telemetry features"):
            policy.predict_probabilities(np.zeros((2, width)))

    def test_offset_applied(self, trained):
        forest, _ = trained
        policy = SC20RandomForestPolicy(forest, threshold=0.5, threshold_offset=0.05)
        assert policy.effective_threshold == pytest.approx(0.55)

    def test_offset_clipped_to_unit_interval(self, trained):
        forest, _ = trained
        policy = SC20RandomForestPolicy(forest, threshold=0.99, threshold_offset=0.05)
        assert policy.effective_threshold == 1.0

    def test_with_threshold_copy(self, trained):
        forest, _ = trained
        base = SC20RandomForestPolicy(forest, training_cost_node_hours=1.5)
        derived = base.with_threshold(0.3, offset=0.02, name="SC20-RF-2%")
        assert derived.threshold == 0.3
        assert derived.name == "SC20-RF-2%"
        assert derived.training_cost_node_hours == pytest.approx(1.5)
        assert derived.forest is base.forest

    def test_trace_cache_used(self, trained):
        forest, dataset = trained
        policy = SC20RandomForestPolicy(forest, threshold=0.5)
        features = dataset.X[:10]
        policy.prepare_trace(features)
        cached = policy.probability_for(_context(features[3], index=3))
        direct = policy.predict_probability(features[3])
        assert cached == pytest.approx(direct)
        policy.reset()
        assert policy._trace_probabilities is None

    def test_invalid_threshold_rejected(self, trained):
        forest, _ = trained
        with pytest.raises(ValueError):
            SC20RandomForestPolicy(forest, threshold=1.5)

    @pytest.mark.parametrize("offset", [float("nan"), float("inf")])
    def test_non_finite_offset_rejected(self, trained, offset):
        forest, _ = trained
        with pytest.raises(ValueError, match="threshold_offset must be finite"):
            SC20RandomForestPolicy(forest, threshold_offset=offset)
        with pytest.raises(ValueError, match="threshold_offset must be finite"):
            SC20RandomForestPolicy(forest).with_threshold(0.5, offset=offset)

    def test_threshold_grid(self):
        grid = SC20RandomForestPolicy.threshold_grid(11)
        assert len(grid) == 11
        assert grid[0] == 0.0 and grid[-1] == 1.0
