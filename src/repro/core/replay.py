"""Experience replay memories: uniform and prioritized (Schaul et al., 2015).

Prioritized experience replay (PER) is the mechanism the paper relies on to
cope with the extreme class imbalance between ordinary telemetry events and
uncorrected errors (Section 3.3.4): transitions with a large temporal-
difference error — typically the rare terminal UE transitions — are replayed
far more often than the abundant uneventful ones.

The sum tree keeps its nodes in a flat list of Python floats and answers
updates and draws with scalar root-to-leaf walks, one loop per batch
(``SumTree.update_many`` / ``SumTree.sample_many``); at the paper's batch
size of 32 this beats a level-synchronous numpy descent.  It accepts only
priorities ``0 <= p < inf``, so a NaN TD error fails where it enters.
``PrioritizedReplayBuffer.sample`` draws the strata as ``low + (high - low)
* rng.random(batch_size)``, numpy's own ``uniform`` arithmetic: bit- and
stream-identical to one scalar ``uniform`` call per stratum.  The one
stream-order hazard — the pre-wrap unfilled-slot fallback, which interleaves
an extra ``integers`` draw between ``uniform`` draws — rewinds the generator
and replays the draws one stratum at a time (``_sample_indices_scalar``).
Priority exponentiation uses Python's ``**`` per element because NumPy's
SIMD ``pow`` is not bitwise-identical to it.

Both buffers store transitions in parallel float64 arrays (states are 1-D
vectors of one fixed length), so a mini-batch is five fancy-index gathers.

The sampled stream is pinned by ``tests/core/test_replay_stream.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.mdp import Transition
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_positive


class SumTree:
    """A complete binary tree whose internal nodes store the sum of leaves.

    Supports O(log n) priority updates and O(log n) sampling proportional to
    the stored priorities.  Leaves are allocated in ring-buffer order by the
    replay memory.  The tree is a flat list of Python floats: a PER batch
    walks it 32 times per train step, and scalar list walks beat numpy's
    per-call dispatch at that size.
    """

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._tree: List[float] = [0.0] * (2 * self.capacity - 1)

    @property
    def total(self) -> float:
        """Sum of all leaf priorities."""
        return self._tree[0]

    def update(self, data_index: int, priority: float) -> None:
        """Set the priority of leaf ``data_index``."""
        self._update_leaves((data_index,), (float(priority),))

    def update_many(self, data_indices: np.ndarray, priorities: np.ndarray) -> None:
        """Apply :meth:`update` to each ``(index, priority)`` pair in order."""
        indices = np.asarray(data_indices, dtype=np.int64).ravel().tolist()
        priorities = np.asarray(priorities, dtype=np.float64).ravel().tolist()
        if len(indices) != len(priorities):
            raise ValueError("indices and priorities must be equally long")
        self._update_leaves(indices, priorities)

    def _update_leaves(self, indices, priorities) -> None:
        tree, capacity = self._tree, self.capacity
        for index, priority in zip(indices, priorities):
            if not 0 <= index < capacity:
                raise IndexError(f"leaf index {index} out of range")
            if not 0.0 <= priority < math.inf:
                raise ValueError(f"leaf {index}: priority {priority} not in [0, inf)")
            idx = index + capacity - 1
            change = priority - tree[idx]
            tree[idx] = priority
            while idx > 0:
                idx = (idx - 1) // 2
                tree[idx] += change

    def get(self, data_index: int) -> float:
        """Priority currently stored at leaf ``data_index``."""
        if not (0 <= data_index < self.capacity):
            raise IndexError(f"leaf index {data_index} out of range")
        return self._tree[data_index + self.capacity - 1]

    def sample(self, value: float) -> Tuple[int, float]:
        """Find the leaf such that the prefix sum of priorities covers ``value``.

        Returns ``(data_index, priority)``.
        """
        indices, priorities = self._find_leaves((float(value),))
        return indices[0], priorities[0]

    def sample_many(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`sample` each value; returns ``(data_indices, priorities)``."""
        drawn = self._find_leaves(np.asarray(values, dtype=np.float64).ravel().tolist())
        return np.array(drawn[0], dtype=np.int64), np.array(drawn[1], dtype=np.float64)

    def _find_leaves(self, values) -> Tuple[List[int], List[float]]:
        tree = self._tree
        total = tree[0]
        if total <= 0:
            raise ValueError("cannot sample from an empty tree")
        top = math.nextafter(total, 0.0)
        n_internal = self.capacity - 1
        indices, priorities = [], []
        for value in values:
            if value < 0.0:  # ``min(max(value, 0.0), top)``, minus two calls
                value = 0.0
            elif value > top:
                value = top
            idx = 0
            while idx < n_internal:
                left = 2 * idx + 1
                left_sum = tree[left]
                if value <= left_sum or tree[left + 1] <= 0.0:
                    idx = left
                else:
                    value -= left_sum
                    idx = left + 1
            indices.append(idx - n_internal)
            priorities.append(tree[idx])
        return indices, priorities


@dataclass
class ReplayBatch:
    """A sampled mini-batch in array form, ready for the Q-network."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray
    weights: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return int(self.states.shape[0])


class _ArrayRing:
    """Ring-buffer transition storage as parallel float64 arrays.

    The arrays are allocated by the first stored transition, whose state
    fixes the dimension; a terminal transition stores a zero next state.
    """

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._next = 0
        self._size = 0
        self._states: Optional[np.ndarray] = None
        self._next_states: Optional[np.ndarray] = None
        self._actions: Optional[np.ndarray] = None
        self._rewards: Optional[np.ndarray] = None
        self._dones: Optional[np.ndarray] = None
        self._state_shape: Optional[Tuple[int, ...]] = None  # set by the first state

    def __len__(self) -> int:
        return self._size

    def _store(self, slot: int, transition: Transition) -> None:
        """Copy one transition into row ``slot``; a rejected one writes nothing."""
        state = np.asarray(transition.state, dtype=np.float64)
        next_state = transition.next_state
        if next_state is not None:
            next_state = np.asarray(next_state, dtype=np.float64)
        if self._states is None and state.ndim == 1:
            dim = state.shape[0]
            self._states = np.zeros((self.capacity, dim))
            self._next_states = np.zeros((self.capacity, dim))
            self._actions = np.zeros(self.capacity, dtype=np.int64)
            self._rewards = np.zeros(self.capacity)
            self._dones = np.zeros(self.capacity)
            self._state_shape = state.shape
        shape = self._state_shape
        next_shape = shape if next_state is None else next_state.shape
        if state.shape != shape or next_shape != shape:
            got = state.shape if state.shape != shape else next_shape
            raise ValueError(
                f"replay states must have shape {shape or '1-D'}, got {got}"
            )
        self._states[slot] = state
        self._next_states[slot] = 0.0 if next_state is None else next_state
        self._actions[slot] = transition.action
        self._rewards[slot] = transition.reward
        self._dones[slot] = transition.done

    def push_many(self, transitions: Iterable[Transition]) -> None:
        """Bulk insert; identical to calling :meth:`push` repeatedly."""
        for transition in transitions:
            self.push(transition)

    def _advance(self) -> None:
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def _gather(self, indices: np.ndarray, weights: np.ndarray) -> ReplayBatch:
        indices = np.asarray(indices, dtype=np.int64)
        return ReplayBatch(  # ``take`` gathers rows faster than ``[indices]``
            states=self._states.take(indices, axis=0),
            actions=self._actions[indices],
            rewards=self._rewards[indices],
            next_states=self._next_states.take(indices, axis=0),
            dones=self._dones[indices],
            weights=np.asarray(weights, dtype=np.float64),
            indices=indices,
        )


class UniformReplayBuffer(_ArrayRing):
    """Plain ring-buffer replay memory with uniform sampling (ablation)."""

    def __init__(self, capacity: int, seed=0) -> None:
        super().__init__(capacity)
        self._rng = as_generator(seed, "replay")

    def push(self, transition: Transition) -> None:
        """Store one transition, evicting the oldest when full."""
        self._store(self._next, transition)
        self._advance()

    def sample(self, batch_size: int) -> ReplayBatch:
        """Sample a batch uniformly at random (importance weights are 1)."""
        check_positive("batch_size", batch_size)
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        indices = self._rng.integers(0, self._size, size=batch_size)
        return self._gather(indices, np.ones(batch_size))

    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """No-op: uniform replay does not track priorities."""

    def anneal(self, fraction: float) -> None:
        """No-op: uniform replay has no importance-sampling correction."""


class PrioritizedReplayBuffer(_ArrayRing):
    """Proportional prioritized experience replay (Schaul et al., 2015).

    Parameters
    ----------
    capacity:
        Maximum number of stored transitions.
    alpha:
        Priority exponent (0 = uniform, 1 = fully proportional).
    beta0:
        Initial importance-sampling exponent, annealed towards 1 by
        :meth:`anneal`.
    epsilon:
        Small constant added to |TD error| so no transition starves.
    """

    def __init__(
        self,
        capacity: int,
        alpha: float = 0.6,
        beta0: float = 0.4,
        epsilon: float = 1e-3,
        seed=0,
    ) -> None:
        super().__init__(capacity)
        check_fraction("alpha", alpha)
        check_fraction("beta0", beta0)
        check_positive("epsilon", epsilon)
        self.alpha = float(alpha)
        self.beta = float(beta0)
        self.beta0 = float(beta0)
        self.epsilon = float(epsilon)
        self._tree = SumTree(self.capacity)
        self._max_priority = 1.0
        self._rng = as_generator(seed, "per")

    def push(self, transition: Transition) -> None:
        """Store a transition with the maximum priority seen so far."""
        self._store(self._next, transition)
        self._tree.update(self._next, self._max_priority**self.alpha)
        self._advance()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    @staticmethod
    def _normalized_weights(
        priorities: np.ndarray, total: float, size: int, beta: float
    ) -> np.ndarray:
        """Importance-sampling weights, normalised by their maximum.

        Guards the normalisation against a zero (or non-finite) maximum:
        all-zero sampled priorities with β > 0 make every raw weight
        infinite — ``inf / inf`` would poison the whole batch with NaNs —
        so the correction degenerates to uniform weights instead.
        """
        probabilities = priorities / max(total, 1e-12)
        with np.errstate(divide="ignore"):
            weights = (size * probabilities) ** (-beta)
        max_weight = float(weights.max())
        if max_weight > 0.0 and math.isfinite(max_weight):
            return weights / max_weight
        return np.ones(len(weights))

    def sample(self, batch_size: int) -> ReplayBatch:
        """Sample proportionally to priority, with importance weights.

        Every stratum's value is ``low + (high - low) * rng.random()``,
        drawn for the whole batch at once — numpy's ``uniform`` arithmetic,
        so bit- and stream-identical to one scalar ``uniform`` call per
        stratum — and then walks the sum tree.  Only when a draw lands on a
        not-yet-filled slot (possible before the buffer wraps for the first
        time) does the generator rewind to its pre-draw state and replay
        the scalar loop, whose fallback interleaves an extra ``integers``
        draw mid-stream.
        """
        check_positive("batch_size", batch_size)
        if self._size == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        total = self._tree.total
        if not total < math.inf:
            raise ValueError(f"cannot sample: the priorities sum to {total}")
        segment = total / batch_size
        checkpoint = self._rng.bit_generator.state
        steps = np.arange(batch_size, dtype=np.float64)
        low = steps * segment
        values = low + ((steps + 1.0) * segment - low) * self._rng.random(batch_size)
        indices, priorities = self._tree.sample_many(values)
        if indices.max() >= self._size:
            self._rng.bit_generator.state = checkpoint
            indices, priorities = self._sample_indices_scalar(batch_size, segment)
        weights = self._normalized_weights(priorities, total, self._size, self.beta)
        return self._gather(indices, weights)

    def _sample_indices_scalar(
        self, batch_size: int, segment: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scalar stratified draw: the pre-wrap fallback path (and the draw
        of the scalar reference in ``tests/core/replay_reference.py``)."""
        indices = np.empty(batch_size, dtype=np.int64)
        priorities = np.empty(batch_size, dtype=np.float64)
        for i in range(batch_size):
            value = self._rng.uniform(i * segment, (i + 1) * segment)
            idx, priority = self._tree.sample(value)
            # Guard against sampling a not-yet-filled slot (only possible
            # before the buffer wraps for the first time).
            if idx >= self._size:
                idx = int(self._rng.integers(0, self._size))
                priority = max(self._tree.get(idx), self.epsilon**self.alpha)
            indices[i] = idx
            priorities[i] = priority
        return indices, priorities

    # ------------------------------------------------------------------ #
    # Priority maintenance
    # ------------------------------------------------------------------ #
    def update_priorities(self, indices: np.ndarray, td_errors: np.ndarray) -> None:
        """Refresh priorities with the latest |TD errors|.

        The α-exponentiation is Python's ``**`` per element: NumPy's SIMD
        ``pow`` is not bitwise-identical to it on large arrays.  A batch with
        a NaN or infinite TD error is rejected before any priority changes.
        """
        td_errors = np.abs(np.asarray(td_errors, dtype=float)).ravel()
        if td_errors.size == 0:
            return
        priorities = td_errors + self.epsilon
        max_priority = float(priorities.max())
        if not max_priority < math.inf:
            bad = int(np.count_nonzero(~np.isfinite(priorities)))
            raise ValueError(f"{bad} of {priorities.size} TD errors are not finite")
        self._max_priority = max(self._max_priority, max_priority)
        self._tree.update_many(
            indices, [priority**self.alpha for priority in priorities.tolist()]
        )

    def anneal(self, fraction: float) -> None:
        """Anneal the importance-sampling exponent β from β₀ to 1."""
        fraction = min(max(float(fraction), 0.0), 1.0)
        self.beta = self.beta0 + (1.0 - self.beta0) * fraction
