"""NumPy implementation of the dueling Q-network and its optimiser.

The paper approximates the Q-function with a fully connected network of four
hidden layers (256, 256, 128 and 64 neurons, Section 3.3.2) and a dueling
head that splits the estimate into a state-value and per-action advantages
(Wang et al., 2016).  No deep-learning framework is available in this
offline environment, so forward and backward passes are written directly
with NumPy.

At the sizes trained here each layer costs more in NumPy call overhead than
in arithmetic.  So a network keeps all its parameters in **one** float64
vector (``params``) and its gradients in another (``grad``); ``weights``,
``biases`` and the head arrays are views into ``params``.  A target sync is
one vector copy and an Adam step a few whole-vector ufuncs.  Elementwise
arithmetic does not depend on how elements are grouped, so this changes no
bit of training, and neither do means written ``x.sum(...) / n``: that is
exactly what ``np.mean`` computes, minus its dispatch
(``tests/core/test_dqn_stream.py`` pins this).  :meth:`backward` returns
views into ``grad`` that its next call overwrites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_positive


def huber_loss(errors: np.ndarray, delta: float = 1.0) -> np.ndarray:
    """Element-wise Huber loss of the TD errors."""
    errors = np.asarray(errors, dtype=float)
    abs_err = np.abs(errors)
    quadratic = np.minimum(abs_err, delta)
    linear = abs_err - quadratic
    return 0.5 * quadratic**2 + delta * linear


def huber_grad(errors: np.ndarray, delta: float = 1.0) -> np.ndarray:
    """Derivative of the Huber loss with respect to the errors."""
    errors = np.asarray(errors, dtype=float)
    return np.minimum(np.maximum(errors, -delta), delta)


def _as_batch(array) -> np.ndarray:
    """``array`` as a 2-D float64 batch: as it is when it is one, a 1-D one as a row."""
    if type(array) is not np.ndarray or array.dtype != np.float64:
        array = np.asarray(array, dtype=float)
    return array if array.ndim == 2 else array.reshape(1, -1)


#: Attributes that are views into a network's flat vectors.
_VIEWS = "_params _grads weights biases value_w value_b advantage_w advantage_b".split()


@dataclass
class _LayerCache:
    """Forward-pass intermediates needed by back-propagation."""

    inputs: np.ndarray
    activations: List[np.ndarray]


class AdamOptimizer:
    """Adam optimiser over a list of arrays (a network passes ``[net.params]``)."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        check_positive("learning_rate", learning_rate)
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        #: Per parameter array: the two moments and two scratch arrays.
        self._slots: Optional[List[Tuple[np.ndarray, ...]]] = None
        self._t = 0

    def update(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        """Apply one Adam step in place."""
        if len(params) != len(grads):
            raise ValueError("params and grads must have the same length")
        if self._slots is None:
            self._slots = [tuple(np.zeros_like(p) for _ in range(4)) for p in params]
        self._t += 1
        lr_t = self.learning_rate * (
            math.sqrt(1 - self.beta2**self._t) / (1 - self.beta1**self._t)
        )
        # Scratch a, b take the temporaries of ``(1-β1)*g``, ``(g*g)*(1-β2)``,
        # ``(lr_t*m) / (sqrt(v)+ε)``, in that operation order.
        for p, g, (m, v, a, b) in zip(params, grads, self._slots):
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(np.multiply(g, g, out=a), 1 - self.beta2, out=a)
            denominator = np.add(np.sqrt(v, out=b), self.epsilon, out=b)
            p -= np.divide(np.multiply(m, lr_t, out=a), denominator, out=a)


class DuelingQNetwork:
    """Fully connected Q-network with an optional dueling head.

    Parameters
    ----------
    input_dim:
        Dimensionality of the state vector.
    hidden_sizes:
        Sizes of the hidden layers (paper: 256, 256, 128, 64).
    n_actions:
        Number of discrete actions (2: mitigate / do nothing).
    dueling:
        When True, the output is ``Q(s, a) = V(s) + A(s, a) − mean_a A(s, a)``;
        when False, the advantage head alone provides the Q-values
        (a vanilla deep Q-network, used for the ablation study).
    seed:
        Seed for He-initialised weights.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_sizes: Sequence[int] = (256, 256, 128, 64),
        n_actions: int = 2,
        dueling: bool = True,
        seed=0,
    ) -> None:
        check_positive("input_dim", input_dim)
        check_positive("n_actions", n_actions)
        if not hidden_sizes:
            raise ValueError("at least one hidden layer is required")
        for size in hidden_sizes:
            check_positive("hidden layer size", size)
        self.input_dim = int(input_dim)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.n_actions = int(n_actions)
        self.dueling = bool(dueling)

        # (name, shape) of every parameter tensor, in parameters() order.
        dims = (self.input_dim,) + self.hidden_sizes
        layout: List[Tuple[str, Tuple[int, ...]]] = []
        for i, (fan_in, size) in enumerate(zip(dims, dims[1:])):
            layout += [(f"hidden_{i}_w", (fan_in, size)), (f"hidden_{i}_b", (size,))]
        last, n_actions = dims[-1], self.n_actions
        layout += [("value_w", (last, 1)), ("value_b", (1,))]
        layout += [("advantage_w", (last, n_actions)), ("advantage_b", (n_actions,))]
        self._layout = tuple(layout)
        self.params = np.zeros(sum(math.prod(shape) for _, shape in layout))
        self.grad = np.zeros_like(self.params)
        self._bind_views()

        rng = as_generator(seed, "qnetwork")
        for (name, shape), view in zip(self._layout, self._params):
            if name.endswith("_w"):  # He initialisation; biases start at zero
                view[...] = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
        self._cache: Optional[_LayerCache] = None

    def _bind_views(self) -> None:
        """(Re)build the per-tensor views into ``params`` and ``grad``."""
        self._params, self._grads = self._split(self.params), self._split(self.grad)
        n = 2 * len(self.hidden_sizes)
        self.weights, self.biases = self._params[0:n:2], self._params[1:n:2]
        self.value_w, self.value_b, self.advantage_w, self.advantage_b = (
            self._params[n:]
        )

    def _split(self, flat: np.ndarray) -> List[np.ndarray]:
        shapes = [shape for _, shape in self._layout]
        parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        return [part.reshape(shape) for part, shape in zip(parts, shapes)]

    def __getstate__(self) -> Dict:
        # Pickle the flat vectors only: views would unpickle as copies.
        return {key: value for key, value in self.__dict__.items() if key not in _VIEWS}

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    def parameters(self) -> List[np.ndarray]:
        """All trainable arrays (views into ``params``), in a stable order."""
        return list(self._params)

    def copy_from(self, other: "DuelingQNetwork") -> None:
        """Hard-copy another network's parameters (target-network sync)."""
        if self._layout != other._layout:
            raise ValueError("cannot copy parameters between different shapes")
        self.params[...] = other.params

    def clone(self) -> "DuelingQNetwork":
        """Structural copy with identical parameters."""
        args = (self.input_dim, self.hidden_sizes, self.n_actions, self.dueling)
        copy = DuelingQNetwork(*args)
        copy.copy_from(self)
        return copy

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serialisable mapping of parameter names to arrays (copies)."""
        names = [name for name, _ in self._layout]
        return {name: view.copy() for name, view in zip(names, self._params)}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters previously produced by :meth:`state_dict`.

        Each entry must have its layout shape exactly (no broadcast); any
        mismatch raises ``ValueError`` before a parameter is written.
        """
        unexpected = sorted(set(state) - {name for name, _ in self._layout})
        if unexpected:
            raise ValueError(f"state dict has unexpected entry {unexpected[0]!r}")
        for name, shape in self._layout:
            got = np.shape(state[name]) if name in state else "missing"
            if got != shape:
                msg = f"state dict entry {name!r}: expected shape {shape}, got {got}"
                raise ValueError(msg)
        for (name, _), view in zip(self._layout, self._params):
            view[...] = state[name]

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, states: np.ndarray, cache: bool = False) -> np.ndarray:
        """Q-values for a batch of states, shape ``(batch, n_actions)``."""
        x = _as_batch(states)
        if x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected states of dimension {self.input_dim}, got {x.shape[1]}"
            )
        h = x
        activations: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            activations.append(h)
        advantage = h @ self.advantage_w + self.advantage_b
        if self.dueling:
            value = h @ self.value_w + self.value_b
            mean_advantage = advantage.sum(axis=1, keepdims=True) / self.n_actions
            q = value + advantage - mean_advantage
        else:
            q = advantage
        if cache:
            self._cache = _LayerCache(inputs=x, activations=activations)
        return q

    def backward(self, d_q: np.ndarray) -> List[np.ndarray]:
        """Gradients of the loss w.r.t. every parameter.

        ``d_q`` is the gradient of the scalar loss with respect to the
        Q-value outputs of the last :meth:`forward` call with ``cache=True``.
        The returned list matches the order of :meth:`parameters`; its
        arrays are views into ``grad``, overwritten by the next call.
        """
        if self._cache is None:
            raise RuntimeError("forward(..., cache=True) must be called first")
        cache = self._cache
        d_q = _as_batch(d_q)
        h_last = cache.activations[-1]
        grads = self._grads
        n = 2 * len(self.hidden_sizes)
        grad_value_w, grad_value_b, grad_advantage_w, grad_advantage_b = grads[n:]

        if self.dueling:
            d_advantage = d_q - d_q.sum(axis=1, keepdims=True) / d_q.shape[1]
        else:
            # The value head is unused: its gradients stay zero.
            d_advantage = d_q
        np.matmul(h_last.T, d_advantage, out=grad_advantage_w)
        d_advantage.sum(axis=0, out=grad_advantage_b)
        d_h = d_advantage @ self.advantage_w.T
        if self.dueling:
            d_value = d_q.sum(axis=1, keepdims=True)
            np.matmul(h_last.T, d_value, out=grad_value_w)
            d_value.sum(axis=0, out=grad_value_b)
            d_h += d_value @ self.value_w.T

        for layer in range(len(self.hidden_sizes) - 1, -1, -1):
            d_h *= cache.activations[layer] > 0.0  # h > 0 exactly where z > 0
            h_prev = cache.activations[layer - 1] if layer > 0 else cache.inputs
            np.matmul(h_prev.T, d_h, out=grads[2 * layer])
            d_h.sum(axis=0, out=grads[2 * layer + 1])
            if layer > 0:  # layer 0's input gradient is not needed
                d_h = d_h @ self.weights[layer].T
        return list(grads)
