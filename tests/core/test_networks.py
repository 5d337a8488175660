"""Tests for the NumPy dueling Q-network, Adam and the Huber loss."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.networks import AdamOptimizer, DuelingQNetwork, huber_grad, huber_loss


class TestHuber:
    def test_quadratic_inside_delta(self):
        assert huber_loss(np.array([0.5]), delta=1.0)[0] == pytest.approx(0.125)

    def test_linear_outside_delta(self):
        assert huber_loss(np.array([3.0]), delta=1.0)[0] == pytest.approx(0.5 + 2.0)

    def test_grad_clipped(self):
        grads = huber_grad(np.array([-5.0, -0.5, 0.5, 5.0]), delta=1.0)
        assert grads.tolist() == [-1.0, -0.5, 0.5, 1.0]

    @given(st.floats(min_value=-1e3, max_value=1e3), st.floats(min_value=0.1, max_value=100))
    def test_property_loss_non_negative_and_grad_bounded(self, error, delta):
        assert huber_loss(np.array([error]), delta)[0] >= 0.0
        assert abs(huber_grad(np.array([error]), delta)[0]) <= delta + 1e-12


class TestAdam:
    def test_minimises_quadratic(self):
        params = [np.array([5.0])]
        adam = AdamOptimizer(learning_rate=0.1)
        for _ in range(500):
            grads = [2 * params[0]]
            adam.update(params, grads)
        assert abs(params[0][0]) < 0.05

    def test_mismatched_lengths_rejected(self):
        adam = AdamOptimizer()
        with pytest.raises(ValueError):
            adam.update([np.zeros(2)], [np.zeros(2), np.zeros(2)])

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            AdamOptimizer(learning_rate=0)


class TestDuelingQNetwork:
    def test_output_shape(self):
        net = DuelingQNetwork(6, hidden_sizes=(16, 8), n_actions=2, seed=0)
        q = net.forward(np.zeros((5, 6)))
        assert q.shape == (5, 2)

    def test_single_state_is_promoted_to_batch(self):
        net = DuelingQNetwork(6, hidden_sizes=(8,), n_actions=2, seed=0)
        q = net.forward(np.zeros(6))
        assert q.shape == (1, 2)

    def test_wrong_input_dim_rejected(self):
        net = DuelingQNetwork(6, hidden_sizes=(8,), seed=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 5)))

    def test_clone_and_copy(self):
        net = DuelingQNetwork(4, hidden_sizes=(8, 8), seed=0)
        clone = net.clone()
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.allclose(net.forward(x), clone.forward(x))
        # Mutate the original; the clone must not change.
        net.weights[0][...] += 1.0
        assert not np.allclose(net.forward(x), clone.forward(x))

    def test_state_dict_roundtrip(self):
        net = DuelingQNetwork(4, hidden_sizes=(8,), seed=1)
        other = DuelingQNetwork(4, hidden_sizes=(8,), seed=2)
        other.load_state_dict(net.state_dict())
        x = np.random.default_rng(0).normal(size=(3, 4))
        assert np.allclose(net.forward(x), other.forward(x))

    def test_dueling_identity(self):
        # Q(s,a) = V(s) + A(s,a) - mean_a A(s,a): the mean over actions of Q
        # equals V, so subtracting the mean of Q recovers the centred advantage.
        net = DuelingQNetwork(4, hidden_sizes=(8,), n_actions=3, seed=3)
        x = np.random.default_rng(1).normal(size=(6, 4))
        q = net.forward(x, cache=True)
        h = net._cache.activations[-1]
        value = h @ net.value_w + net.value_b
        assert np.allclose(q.mean(axis=1, keepdims=True), value)

    def test_numerical_gradient_check_dueling(self):
        self._gradient_check(dueling=True)

    def test_numerical_gradient_check_vanilla(self):
        self._gradient_check(dueling=False)

    @staticmethod
    def _gradient_check(dueling):
        rng = np.random.default_rng(0)
        net = DuelingQNetwork(5, hidden_sizes=(7, 6), n_actions=2, dueling=dueling, seed=4)
        x = rng.normal(size=(4, 5))
        target = rng.normal(size=(4, 2))

        def loss_fn():
            q = net.forward(x)
            return 0.5 * np.sum((q - target) ** 2)

        q = net.forward(x, cache=True)
        grads = net.backward(q - target)
        params = net.parameters()
        epsilon = 1e-6
        # Spot-check a few entries of every parameter tensor.
        for param, grad in zip(params, grads):
            flat = param.reshape(-1)
            flat_grad = grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                original = flat[idx]
                flat[idx] = original + epsilon
                plus = loss_fn()
                flat[idx] = original - epsilon
                minus = loss_fn()
                flat[idx] = original
                numeric = (plus - minus) / (2 * epsilon)
                assert numeric == pytest.approx(flat_grad[idx], rel=1e-4, abs=1e-5)

    def test_backward_without_cache_raises(self):
        net = DuelingQNetwork(4, hidden_sizes=(8,), seed=0)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 2)))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(5)
        net = DuelingQNetwork(3, hidden_sizes=(32, 16), n_actions=2, seed=5)
        adam = AdamOptimizer(1e-2)
        x = rng.normal(size=(64, 3))
        target = np.stack([x[:, 0] + x[:, 1], x[:, 2] - x[:, 0]], axis=1)

        def step():
            q = net.forward(x, cache=True)
            diff = q - target
            grads = net.backward(diff / len(x))
            adam.update(net.parameters(), grads)
            return float(np.mean(diff**2))

        first = step()
        for _ in range(300):
            last = step()
        assert last < first * 0.2

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DuelingQNetwork(0)
        with pytest.raises(ValueError):
            DuelingQNetwork(4, hidden_sizes=())

    def test_rejects_an_empty_hidden_layer(self):
        with pytest.raises(ValueError, match="hidden layer size must be > 0, got 0"):
            DuelingQNetwork(3, hidden_sizes=(0,))


class TestFlatParameterBuffer:
    """The parameters live in one vector; copies must never alias it."""

    @staticmethod
    def _net(seed=0):
        return DuelingQNetwork(5, hidden_sizes=(7, 6), n_actions=2, seed=seed)

    def test_parameters_are_views_of_one_buffer(self):
        net = self._net()
        params = net.parameters()
        assert all(np.shares_memory(p, net.params) for p in params)
        assert sum(p.size for p in params) == net.params.size
        assert np.array_equal(np.concatenate([p.ravel() for p in params]), net.params)
        # The named attributes are the same views.
        assert net.weights[1] is params[2] and net.advantage_b is params[-1]
        net.params[-1] = 3.5
        assert net.advantage_b[-1] == 3.5

    def test_backward_returns_views_of_the_gradient_buffer(self):
        net = self._net()
        net.forward(np.ones((3, 5)), cache=True)
        grads = net.backward(np.ones((3, 2)))
        assert all(np.shares_memory(g, net.grad) for g in grads)
        assert [g.shape for g in grads] == [p.shape for p in net.parameters()]

    def test_clone_and_copy_from_never_share_the_buffer(self):
        online = self._net(seed=1)
        target = online.clone()
        synced = self._net(seed=2)
        synced.copy_from(online)
        for copy in (target, synced):
            assert not np.shares_memory(copy.params, online.params)
            assert np.array_equal(copy.params, online.params)
        before = target.params.copy()
        online.forward(np.ones((4, 5)), cache=True)
        online.backward(np.ones((4, 2)))
        AdamOptimizer(1e-2).update([online.params], [online.grad])
        assert not np.array_equal(online.params, before)
        assert np.array_equal(target.params, before)
        assert np.array_equal(synced.params, before)

    def test_copy_between_layouts_rejected(self):
        with pytest.raises(ValueError):
            self._net().copy_from(DuelingQNetwork(5, hidden_sizes=(6, 7)))

    def test_pickle_keeps_the_views_bound(self):
        net = pickle.loads(pickle.dumps(self._net()))
        assert all(np.shares_memory(p, net.params) for p in net.parameters())
        assert np.shares_memory(net.weights[0], net.params)
        net.params[:] = 0.0
        assert not net.forward(np.ones((2, 5))).any()


class TestLoadStateDict:
    def test_rejects_a_row_that_would_broadcast(self):
        net = DuelingQNetwork(4, hidden_sizes=(8, 8), seed=0)
        state = net.state_dict()
        state["hidden_1_w"] = state["hidden_1_w"][:1]
        before = net.params.copy()
        with pytest.raises(
            ValueError, match=r"'hidden_1_w': expected shape \(8, 8\), got \(1, 8\)"
        ):
            net.load_state_dict(state)
        # Nothing was written.
        assert np.array_equal(net.params, before)

    def test_names_a_missing_entry(self):
        net = DuelingQNetwork(4, hidden_sizes=(8,), seed=0)
        state = net.state_dict()
        del state["value_b"]
        expected = r"'value_b': expected shape \(1,\), got missing"
        with pytest.raises(ValueError, match=expected):
            net.load_state_dict(state)

    def test_names_an_unexpected_entry(self):
        state = DuelingQNetwork(4, hidden_sizes=(8, 8), seed=0).state_dict()
        with pytest.raises(ValueError, match="unexpected entry 'hidden_1_b'"):
            DuelingQNetwork(4, hidden_sizes=(8,), seed=0).load_state_dict(state)
