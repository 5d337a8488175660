"""Tests for the from-scratch random forest."""

import numpy as np
import pytest

from repro.baselines.random_forest import RandomForestClassifier


def _dataset(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = ((X[:, 0] > 0) & (X[:, 1] + X[:, 2] > -0.5)).astype(float)
    return X, y


class TestRandomForest:
    def test_learns_nonlinear_boundary(self):
        X, y = _dataset()
        forest = RandomForestClassifier(n_estimators=20, max_depth=6, seed=0).fit(X, y)
        accuracy = np.mean(forest.predict(X) == y)
        assert accuracy > 0.9

    def test_probabilities_are_ensemble_means(self):
        X, y = _dataset(100)
        forest = RandomForestClassifier(n_estimators=5, max_depth=3, seed=1).fit(X, y)
        proba = forest.predict_proba(X)
        manual = np.mean([t.predict_proba(X) for t in forest.trees_], axis=0)
        assert np.allclose(proba, manual)

    def test_probability_range(self):
        X, y = _dataset(100)
        forest = RandomForestClassifier(n_estimators=10, seed=2).fit(X, y)
        proba = forest.predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_reproducible_with_seed(self):
        X, y = _dataset(150)
        a = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict_proba(X)
        b = RandomForestClassifier(n_estimators=5, seed=3).fit(X, y).predict_proba(X)
        assert np.allclose(a, b)

    def test_all_negative_labels_predict_zero(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        y = np.zeros(50)
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(X, y)
        assert np.all(forest.predict_proba(X) == 0.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)
        with pytest.raises(ValueError):
            RandomForestClassifier().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            RandomForestClassifier().fit(np.zeros((4, 2)), np.zeros(3))

    def test_without_bootstrap(self):
        X, y = _dataset(80)
        forest = RandomForestClassifier(n_estimators=3, bootstrap=False, seed=0).fit(X, y)
        assert forest.is_fitted

    def test_ensemble_smoother_than_single_tree(self):
        X, y = _dataset(200, seed=5)
        forest = RandomForestClassifier(n_estimators=30, max_depth=4, seed=5).fit(X, y)
        proba = forest.predict_proba(X)
        # A 30-tree ensemble should produce intermediate probabilities, not
        # only hard 0/1 votes.
        assert np.any((proba > 0.05) & (proba < 0.95))

    def test_pickle_drops_the_shared_trace_predictions(self):
        import pickle

        X, y = _dataset(120, seed=6)
        forest = RandomForestClassifier(n_estimators=4, max_depth=4, seed=6).fit(X, y)
        expected = forest.predict_batch(X)
        # What SC20RandomForestPolicy.prepare_traces leaves on a forest: the
        # panel key, the pinned feature arrays and their probabilities.
        forest._shared_trace_predictions = ((id(X),), [X], expected)
        restored = pickle.loads(pickle.dumps(forest))
        assert restored._shared_trace_predictions is None
        np.testing.assert_array_equal(restored.predict_batch(X), expected)
        np.testing.assert_array_equal(restored.predict_proba(X), forest.predict_proba(X))
        # The live forest keeps its cache.
        assert forest._shared_trace_predictions is not None
