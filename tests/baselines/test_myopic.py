"""Tests for the Myopic-RF expected-cost policy."""

import numpy as np
import pytest

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.myopic import MyopicRFPolicy
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.core.features import N_FEATURES
from repro.core.policies import DecisionContext


class _StubSC20(SC20RandomForestPolicy):
    """SC20 policy with a fixed probability, for deterministic unit tests."""

    def __init__(self, probability, training_cost_node_hours=0.0):
        # Bypass the parent constructor: no forest is needed.
        self._probability = probability
        self.name = "stub"
        self._training_cost = training_cost_node_hours
        self._trace_probabilities = None

    def probability_for(self, context):
        return self._probability

    def prepare_trace(self, features):
        return None

    def reset(self):
        return None

    @property
    def training_cost_node_hours(self):
        return self._training_cost


def _context(ue_cost):
    return DecisionContext(
        time=0.0, node=0, features=np.zeros(N_FEATURES), ue_cost=ue_cost
    )


class TestMyopicDecisionRule:
    def test_mitigates_when_expected_cost_exceeds_mitigation(self):
        policy = MyopicRFPolicy(_StubSC20(0.5), mitigation_cost_node_hours=1.0)
        assert policy.decide(_context(ue_cost=3.0)) is True

    def test_does_not_mitigate_when_expected_cost_below(self):
        policy = MyopicRFPolicy(_StubSC20(0.01), mitigation_cost_node_hours=1.0)
        assert policy.decide(_context(ue_cost=10.0)) is False

    def test_boundary_is_strict(self):
        policy = MyopicRFPolicy(_StubSC20(0.5), mitigation_cost_node_hours=1.0)
        assert policy.decide(_context(ue_cost=2.0)) is False

    def test_adapts_to_ue_cost(self):
        policy = MyopicRFPolicy(_StubSC20(0.001), mitigation_cost_node_hours=2 / 60)
        assert policy.decide(_context(ue_cost=1.0)) is False
        assert policy.decide(_context(ue_cost=1000.0)) is True

    def test_training_cost_shared_with_sc20(self):
        policy = MyopicRFPolicy(_StubSC20(0.5, training_cost_node_hours=2.5), 1.0)
        assert policy.training_cost_node_hours == pytest.approx(2.5)

    def test_rejects_negative_mitigation_cost(self):
        with pytest.raises(ValueError):
            MyopicRFPolicy(_StubSC20(0.5), mitigation_cost_node_hours=-1)


class TestMyopicWithRealForest:
    def test_runs_on_generated_data(self, feature_tracks):
        dataset = build_prediction_dataset(feature_tracks)
        forest = train_sc20_forest(dataset, n_estimators=5, seed=0)
        sc20 = SC20RandomForestPolicy(forest, threshold=0.5)
        policy = MyopicRFPolicy(sc20, mitigation_cost_node_hours=2 / 60)
        features = dataset.X[:20]
        policy.prepare_trace(features)
        decisions = [
            policy.decide(
                DecisionContext(
                    time=0.0, node=0, features=features[i], ue_cost=100.0, event_index=i
                )
            )
            for i in range(len(features))
        ]
        assert all(isinstance(d, bool) for d in decisions)
