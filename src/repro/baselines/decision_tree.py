"""CART decision-tree classifier, written from scratch with NumPy.

scikit-learn is not available in the offline environment, so the random
forest used by the SC20 baseline is built on this minimal CART
implementation: binary splits chosen by Gini impurity, optional random
feature subsampling at each node (for forests), and probability estimates
from leaf class frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive


@dataclass
class _Node:
    """One node of the fitted tree (leaf when ``feature`` is None)."""

    feature: Optional[int]
    threshold: float
    left: int
    right: int
    #: Probability of the positive class among training samples in the node.
    probability: float
    n_samples: int


def _gini(positive: float, total: float) -> float:
    """Gini impurity of a node with ``positive`` positives out of ``total``."""
    if total <= 0:
        return 0.0
    p = positive / total
    return 2.0 * p * (1.0 - p)


class DecisionTreeClassifier:
    """Binary CART classifier with Gini splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth.
    min_samples_split:
        Minimum samples required to attempt a split.
    min_samples_leaf:
        Minimum samples each child must receive.
    max_features:
        Number of features examined at each split; ``None`` uses all,
        ``"sqrt"`` uses ⌈√d⌉ (the random-forest default).
    seed:
        Seed for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features=None,
        seed=0,
    ) -> None:
        check_positive("max_depth", max_depth)
        check_positive("min_samples_split", min_samples_split)
        check_positive("min_samples_leaf", min_samples_leaf)
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self._rng = as_generator(seed, "tree")
        self._nodes: List[_Node] = []
        self.n_features_: Optional[int] = None
        self._flat: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return bool(self._nodes)

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the fitted tree."""
        return len(self._nodes)

    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.ceil(np.sqrt(n_features))))
        return max(1, min(int(self.max_features), n_features))

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit the tree on features ``X`` and binary labels ``y``."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of samples")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on an empty dataset")
        if not np.isin(np.unique(y), [0.0, 1.0]).all():
            raise ValueError("labels must be binary (0/1)")
        self.n_features_ = X.shape[1]
        self._nodes = []
        self._flat = None
        self._build(X, y, np.arange(X.shape[0]), depth=0)
        return self

    def _build(self, X: np.ndarray, y: np.ndarray, indices: np.ndarray, depth: int) -> int:
        node_index = len(self._nodes)
        y_node = y[indices]
        positives = float(y_node.sum())
        total = float(len(indices))
        probability = positives / total if total else 0.0
        # Reserve the slot; children indices are patched after recursion.
        self._nodes.append(
            _Node(
                feature=None,
                threshold=0.0,
                left=-1,
                right=-1,
                probability=probability,
                n_samples=int(total),
            )
        )

        if (
            depth >= self.max_depth
            or total < self.min_samples_split
            or positives == 0.0
            or positives == total
        ):
            return node_index

        split = self._best_split(X, y, indices)
        if split is None:
            return node_index
        feature, threshold, left_idx, right_idx = split
        left_child = self._build(X, y, left_idx, depth + 1)
        right_child = self._build(X, y, right_idx, depth + 1)
        node = self._nodes[node_index]
        node.feature = int(feature)
        node.threshold = float(threshold)
        node.left = left_child
        node.right = right_child
        return node_index

    def _best_split(self, X: np.ndarray, y: np.ndarray, indices: np.ndarray):
        """Best (feature, threshold) by Gini gain, or None if nothing helps."""
        n_features = X.shape[1]
        k = self._n_split_features(n_features)
        if k < n_features:
            features = self._rng.choice(n_features, size=k, replace=False)
        else:
            features = np.arange(n_features)

        y_node = y[indices]
        total = float(len(indices))
        total_pos = float(y_node.sum())
        parent_impurity = _gini(total_pos, total)

        best_gain = 1e-12
        best = None
        for feature in features:
            values = X[indices, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            sorted_y = y_node[order]
            # Candidate split positions: where the feature value changes.
            change = np.flatnonzero(np.diff(sorted_values) > 0) + 1
            if change.size == 0:
                continue
            cum_pos = np.cumsum(sorted_y)
            left_count = change.astype(float)
            right_count = total - left_count
            valid = (left_count >= self.min_samples_leaf) & (
                right_count >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            left_pos = cum_pos[change - 1]
            right_pos = total_pos - left_pos
            left_gini = np.where(
                left_count > 0, 2 * (left_pos / left_count) * (1 - left_pos / left_count), 0.0
            )
            right_gini = np.where(
                right_count > 0,
                2 * (right_pos / right_count) * (1 - right_pos / right_count),
                0.0,
            )
            weighted = (left_count * left_gini + right_count * right_gini) / total
            gain = parent_impurity - weighted
            gain[~valid] = -np.inf
            best_local = int(np.argmax(gain))
            if gain[best_local] > best_gain:
                best_gain = float(gain[best_local])
                pos = change[best_local]
                threshold = 0.5 * (sorted_values[pos - 1] + sorted_values[pos])
                mask = values <= threshold
                best = (feature, threshold, indices[mask], indices[~mask])
        return best

    # ------------------------------------------------------------------ #
    def _flat_arrays(self) -> tuple:
        """Array form of the fitted tree: ``(feature, threshold, left,
        right, probability, depth)``.

        Built lazily after :meth:`fit` and cached.  Leaves are encoded as
        self-loops (``left == right == node``, dummy feature 0, threshold
        ``+inf``) so the level-synchronous traversal needs no per-level
        pending-row filtering: rows parked on a leaf keep re-selecting it.
        ``depth`` is the maximum node depth — the number of traversal steps
        that provably parks every row on a leaf.
        """
        if self._flat is None:
            n_nodes = len(self._nodes)
            feature = np.zeros(n_nodes, dtype=np.int64)
            threshold = np.full(n_nodes, np.inf)
            left = np.arange(n_nodes, dtype=np.int64)
            right = np.arange(n_nodes, dtype=np.int64)
            probability = np.empty(n_nodes)
            depth = np.zeros(n_nodes, dtype=np.int64)
            for index, node in enumerate(self._nodes):
                probability[index] = node.probability
                if node.feature is not None:
                    feature[index] = node.feature
                    threshold[index] = node.threshold
                    left[index] = node.left
                    right[index] = node.right
                    # _build appends parents before children (preorder), so
                    # child depths resolve in one forward pass.
                    depth[node.left] = depth[index] + 1
                    depth[node.right] = depth[index] + 1
            self._flat = (
                feature,
                threshold,
                left,
                right,
                probability,
                int(depth.max()) if n_nodes else 0,
            )
        return self._flat

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each sample.

        Level-synchronous traversal: every row holds a node pointer and all
        rows advance one level per iteration (leaves self-loop), so a batch
        prediction costs O(depth) vectorized steps instead of a Python loop
        over tree nodes.  Each row performs exactly the comparisons the
        node-by-node walk would — predictions are bitwise identical for any
        batch size.
        """
        if not self.is_fitted:
            raise RuntimeError("the tree has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        feature, threshold, left, right, probability, depth = self._flat_arrays()
        n_rows = X.shape[0]
        flat_x = np.ascontiguousarray(X).ravel()
        row_base = np.arange(n_rows, dtype=np.int64) * X.shape[1]
        node = np.zeros(n_rows, dtype=np.int64)
        for _ in range(depth):
            values = flat_x[row_base + feature[node]]
            node = np.where(values <= threshold[node], left[node], right[node])
        return probability[node]

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Explicit batched probability prediction for a feature matrix.

        The canonical whole-trace entry point of the vectorized decision
        core (one call per evaluation trace).  Tree traversal routes each
        row independently — thresholds are compared per row, never combined
        across rows — so the result is bitwise identical to predicting the
        rows one at a time, whatever the batch size.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("predict_batch expects a 2-D feature matrix")
        return self.predict_proba(X)

    def predict(self, X: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Binary prediction at the given probability threshold."""
        return (self.predict_proba(X) >= threshold).astype(np.int64)
