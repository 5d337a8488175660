"""Recorded PER stream: the sum tree and prioritized buffer must reproduce it.

RL training (and so every golden experiment fingerprint) depends on each bit
of the prioritized-replay stream: which slots a batch draws, the importance
weights, and the priorities the tree holds afterwards.  ``per_stream.json``
pins that stream for one seeded script that covers the three subtle cases:

* the pre-wrap unfilled-slot fallback (a draw lands on a slot that holds
  priority but no transition yet, and an extra ``integers`` draw replaces it);
* a ``push_many`` that wraps around the ring;
* priority updates that name the same slot more than once.

Floats are stored with ``float.hex`` so the comparison is exact.  To
re-record after an *intentional* stream change::

    PYTHONPATH=src python tests/core/test_replay_stream.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.mdp import Transition
from repro.core.replay import PrioritizedReplayBuffer

FIXTURE = Path(__file__).with_name("per_stream.json")

CAPACITY = 8


def _transitions(rng, count) -> List[Transition]:
    return [
        Transition(
            state=rng.normal(size=3),
            action=int(rng.integers(2)),
            reward=float(rng.normal()),
            next_state=rng.normal(size=3),
            done=False,
        )
        for _ in range(count)
    ]


def _hex(values) -> List[str]:
    return [float(value).hex() for value in values]


def run_stream() -> List[Dict[str, object]]:
    """Drive one seeded buffer through the script; one record per step."""
    rng = np.random.default_rng(2024)
    buffer = PrioritizedReplayBuffer(CAPACITY, alpha=0.6, beta0=0.4, seed=17)
    records: List[Dict[str, object]] = []

    def record(op: str, **extra) -> None:
        tree = buffer._tree
        records.append(
            {
                "op": op,
                **extra,
                "leaves": _hex(tree.get(i) for i in range(CAPACITY)),
                "total": tree.total.hex(),
            }
        )

    def sample(batch_size: int) -> np.ndarray:
        batch = buffer.sample(batch_size)
        record(
            f"sample({batch_size})",
            indices=[int(i) for i in batch.indices],
            priorities=_hex(buffer._tree.get(int(i)) for i in batch.indices),
            weights=_hex(batch.weights),
        )
        return batch.indices

    def update(indices, errors) -> None:
        buffer.update_priorities(np.asarray(indices), np.asarray(errors))
        record("update_priorities", indices=[int(i) for i in indices])

    for transition in _transitions(rng, 3):
        buffer.push(transition)
    record("push x3")
    indices = sample(4)
    update(indices, rng.normal(size=indices.size) * 5)

    # Give the first unfilled slot (3 == len) most of the mass: draws
    # landing on it take the fallback, which interleaves an ``integers``
    # draw mid-stream.
    buffer._tree.update(3, 50.0)
    record("rig slot 3")
    sample(16)
    sample(4)

    # 3 + 10 pushes wrap the 8-slot ring.
    buffer.push_many(_transitions(rng, 10))
    record("push_many x10")

    for round_index, batch_size in enumerate((7, 8, 5, 8, 3, 8)):
        buffer.anneal(round_index / 6)
        indices = sample(batch_size)
        # Repeat the first three draws so every refresh names some slot
        # twice (batches of 7-8 draws over 8 slots repeat slots anyway).
        repeated = np.concatenate([indices, indices[:3]])
        update(repeated, rng.normal(size=repeated.size) * 10 ** (round_index - 2))
        if round_index % 2:
            buffer.push(_transitions(rng, 1)[0])
            record("push")

    update([3, 3, 5, 3, 5], [0.5, 7.0, 1e-4, 2.0, 30.0])
    sample(8)
    return records


def test_stream_matches_recording():
    recorded = json.loads(FIXTURE.read_text())
    actual = run_stream()
    assert len(actual) == len(recorded)
    for step, (got, want) in enumerate(zip(actual, recorded)):
        assert got == want, f"step {step} ({want['op']}) diverged"


def test_recording_exercises_the_fallback_wrap_and_duplicates():
    """Guard the script's coverage, not just its output."""
    recorded = json.loads(FIXTURE.read_text())
    ops = [step["op"] for step in recorded]
    assert "rig slot 3" in ops and "push_many x10" in ops
    rigged = recorded[ops.index("rig slot 3") + 1]
    # The fallback replaced every draw on the unfilled slot with a filled one.
    assert all(index < 3 for index in rigged["indices"])
    assert rigged["priorities"] != [float(50.0).hex()] * len(rigged["indices"])
    updates = [step["indices"] for step in recorded if step["op"] == "update_priorities"]
    assert all(len(set(indices)) < len(indices) for indices in updates[1:])


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(run_stream(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
