"""Scalar reference oracles of prioritized experience replay.

``PrioritizedReplayBuffer.sample`` draws every stratum of a batch at once
and walks the sum tree in one loop; ``update_priorities`` refreshes a
batch's priorities in one call.  These per-draw and per-element versions
are the originals they must reproduce bit for bit, RNG stream included
(``tests/core/test_replay_vectorized.py``), and the scalar baseline of the
decision-core benchmark's PER leg.
"""

from __future__ import annotations

import numpy as np

from repro.core.replay import PrioritizedReplayBuffer, ReplayBatch
from repro.utils.validation import check_positive


def sample_reference(buffer: PrioritizedReplayBuffer, batch_size: int) -> ReplayBatch:
    """``buffer.sample(batch_size)``, one ``uniform`` draw and tree walk per
    stratum (the buffer's own pre-wrap fallback loop)."""
    check_positive("batch_size", batch_size)
    if len(buffer) == 0:
        raise ValueError("cannot sample from an empty replay buffer")
    total = buffer._tree.total
    segment = total / batch_size
    indices, priorities = buffer._sample_indices_scalar(batch_size, segment)
    weights = buffer._normalized_weights(priorities, total, len(buffer), buffer.beta)
    return buffer._gather(indices, weights)


def update_priorities_reference(
    buffer: PrioritizedReplayBuffer, indices: np.ndarray, td_errors: np.ndarray
) -> None:
    """``buffer.update_priorities(indices, td_errors)``, one tree update per
    element."""
    td_errors = np.abs(np.asarray(td_errors, dtype=float))
    for idx, err in zip(np.asarray(indices, dtype=int), td_errors):
        priority = float(err) + buffer.epsilon
        buffer._max_priority = max(buffer._max_priority, priority)
        buffer._tree.update(int(idx), priority**buffer.alpha)
