"""Tests for the replay memories (sum tree, uniform, prioritized)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mdp import Transition
from repro.core.replay import PrioritizedReplayBuffer, SumTree, UniformReplayBuffer

from .replay_reference import update_priorities_reference


def _transition(value=0.0, done=False, action=0):
    state = np.full(4, value)
    return Transition(
        state=state,
        action=action,
        reward=-value,
        next_state=None if done else state + 1,
        done=done,
    )


class TestSumTree:
    def test_total_tracks_updates(self):
        tree = SumTree(8)
        tree.update(0, 1.0)
        tree.update(3, 2.0)
        assert tree.total == pytest.approx(3.0)
        tree.update(0, 0.5)
        assert tree.total == pytest.approx(2.5)

    def test_get_returns_stored_priority(self):
        tree = SumTree(4)
        tree.update(2, 1.25)
        assert tree.get(2) == pytest.approx(1.25)

    def test_sample_respects_prefix_sums(self):
        tree = SumTree(4)
        tree.update(0, 1.0)
        tree.update(1, 2.0)
        tree.update(2, 3.0)
        idx, priority = tree.sample(0.5)
        assert idx == 0
        idx, priority = tree.sample(2.5)
        assert idx == 1
        idx, priority = tree.sample(5.5)
        assert idx == 2

    def test_sample_never_walks_into_a_zero_subtree(self):
        """Rounding drift can leave an internal sum above its leaves; a draw
        at the top of the range must still land on a leaf with priority."""
        tree = SumTree(2)
        for priority in (0.3, 0.9, 0.05):
            tree.update(0, priority)
        assert tree.total > tree.get(0)  # 0.05 + 1 ulp-scale drift
        assert tree.sample(tree.total) == (0, 0.05)

    def test_sample_empty_tree_raises(self):
        with pytest.raises(ValueError):
            SumTree(4).sample(0.0)

    def test_update_out_of_range(self):
        tree = SumTree(4)
        with pytest.raises(IndexError):
            tree.update(4, 1.0)

    @pytest.mark.parametrize("index", [-3, -1, 4, 7])
    def test_get_out_of_range_names_the_leaf(self, index):
        tree = SumTree(4)
        tree.update(0, 1.0)
        tree.update(1, 2.0)
        with pytest.raises(IndexError, match=rf"^leaf index {index} out of range$"):
            tree.get(index)

    def test_negative_priority_rejected(self):
        with pytest.raises(ValueError):
            SumTree(4).update(0, -1.0)

    @pytest.mark.parametrize("priority", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("batched", [False, True], ids=["update", "update_many"])
    def test_non_finite_or_negative_priority_rejected(self, priority, batched):
        tree = SumTree(4)
        tree.update(1, 2.0)
        with pytest.raises(ValueError, match=rf"^leaf 3: priority {priority} not in"):
            if batched:
                tree.update_many(np.array([3]), np.array([priority]))
            else:
                tree.update(3, priority)
        assert tree.total == 2.0 and tree.get(3) == 0.0

    def test_non_power_of_two_capacity(self):
        tree = SumTree(5)
        for i in range(5):
            tree.update(i, float(i + 1))
        assert tree.total == pytest.approx(15.0)
        # Sampling remains proportional even when the leaf layer is ragged:
        # the returned leaf always carries the priority that was stored in it.
        idx, priority = tree.sample(14.9)
        assert 0 <= idx < 5
        assert priority == pytest.approx(float(idx + 1))

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=32))
    @settings(max_examples=50, deadline=None)
    def test_property_sampling_proportional(self, priorities):
        tree = SumTree(len(priorities))
        for i, p in enumerate(priorities):
            tree.update(i, p)
        assert tree.total == pytest.approx(sum(priorities), rel=1e-9)
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx, priority = tree.sample(rng.uniform(0, tree.total))
            assert 0 <= idx < len(priorities)
            assert priority == pytest.approx(priorities[idx], rel=1e-9)


class TestUniformReplayBuffer:
    def test_push_and_len(self):
        buffer = UniformReplayBuffer(4)
        for i in range(3):
            buffer.push(_transition(i))
        assert len(buffer) == 3

    def test_capacity_eviction(self):
        buffer = UniformReplayBuffer(4)
        for i in range(10):
            buffer.push(_transition(i))
        assert len(buffer) == 4

    def test_sample_shapes(self):
        buffer = UniformReplayBuffer(16, seed=0)
        for i in range(8):
            buffer.push(_transition(i, done=(i % 3 == 0), action=i % 2))
        batch = buffer.sample(5)
        assert batch.states.shape == (5, 4)
        assert batch.next_states.shape == (5, 4)
        assert batch.actions.shape == (5,)
        assert np.all(batch.weights == 1.0)

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            UniformReplayBuffer(4).sample(1)


class TestPrioritizedReplayBuffer:
    def _filled(self, n=32, capacity=64):
        buffer = PrioritizedReplayBuffer(capacity, seed=1)
        for i in range(n):
            buffer.push(_transition(i, done=(i % 7 == 0)))
        return buffer

    def test_sample_shapes_and_weights(self):
        buffer = self._filled()
        batch = buffer.sample(8)
        assert batch.states.shape == (8, 4)
        assert batch.weights.shape == (8,)
        assert np.all(batch.weights > 0) and np.all(batch.weights <= 1.0 + 1e-9)

    def test_update_priorities_biases_sampling(self):
        buffer = PrioritizedReplayBuffer(64, alpha=1.0, seed=2)
        for i in range(16):
            buffer.push(_transition(i))
        # Give index 3 an enormous priority.
        buffer.update_priorities(np.arange(16), np.full(16, 1e-3))
        buffer.update_priorities(np.array([3]), np.array([1000.0]))
        counts = np.zeros(16)
        for _ in range(40):
            batch = buffer.sample(8)
            for idx in batch.indices:
                counts[idx] += 1
        assert counts[3] == counts.max()
        assert counts[3] > 40  # sampled in nearly every batch

    def test_beta_annealing(self):
        buffer = PrioritizedReplayBuffer(8, beta0=0.4)
        buffer.anneal(0.5)
        assert buffer.beta == pytest.approx(0.7)
        buffer.anneal(2.0)
        assert buffer.beta == pytest.approx(1.0)

    def test_capacity_eviction(self):
        buffer = self._filled(n=200, capacity=64)
        assert len(buffer) == 64

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(0)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, alpha=1.5)
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4, epsilon=0)

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            PrioritizedReplayBuffer(4).sample(1)

    def test_push_rejects_a_2d_state(self):
        buffer = PrioritizedReplayBuffer(4)
        bad = Transition(
            state=np.zeros((2, 2)), action=0, reward=0.0, next_state=None, done=True
        )
        with pytest.raises(ValueError, match="shape"):
            buffer.push(bad)
        assert len(buffer) == 0

    def test_push_rejects_a_state_of_another_length(self):
        buffer = PrioritizedReplayBuffer(4)
        buffer.push(_transition(0))
        with pytest.raises(ValueError, match=r"\(4,\)"):
            buffer.push(
                Transition(
                    state=np.zeros(3), action=0, reward=0.0, next_state=None, done=True
                )
            )

    @pytest.mark.parametrize("td_error", [float("nan"), float("inf"), -1.0])
    def test_update_priorities_rejects_non_finite_td_errors(self, td_error):
        buffer = self._filled(n=8, capacity=8)
        leaves = [buffer._tree.get(i) for i in range(8)]
        errors = np.array([0.5, td_error, 2.0, td_error])
        if np.isfinite(td_error):  # |TD error| is the priority: -1 is fine
            buffer.update_priorities(np.arange(4), errors)
            assert buffer._tree.get(1) == (1.0 + buffer.epsilon) ** buffer.alpha
            return
        with pytest.raises(ValueError, match=r"^2 of 4 TD errors are not finite$"):
            buffer.update_priorities(np.arange(4), errors)
        assert [buffer._tree.get(i) for i in range(8)] == leaves
        buffer.sample(4)  # the tree is still usable

    def test_scalar_priority_refresh_rejects_a_nan_td_error(self):
        buffer = self._filled(n=8, capacity=8)
        with pytest.raises(ValueError, match="^leaf 2: priority nan "):
            update_priorities_reference(buffer, np.array([2]), np.array([np.nan]))

    def test_sample_rejects_a_non_finite_total(self):
        buffer = self._filled(n=8, capacity=8)
        buffer._tree.update_many(np.arange(8), np.full(8, 1e308))
        with pytest.raises(ValueError, match="priorities sum to inf"):
            buffer.sample(4)

    def test_new_transitions_get_max_priority(self):
        buffer = PrioritizedReplayBuffer(16, alpha=1.0, seed=3)
        buffer.push(_transition(0))
        buffer.update_priorities(np.array([0]), np.array([50.0]))
        buffer.push(_transition(1))
        # The new transition should have priority comparable to the maximum.
        assert buffer._tree.get(1) >= buffer._tree.get(0) - 1e-9
