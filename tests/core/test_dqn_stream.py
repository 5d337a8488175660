"""Recorded DQN training stream: the agent must reproduce it bit for bit.

RL training (and so every golden experiment fingerprint) depends on each bit
of the gradient step: the forward and backward passes of the Q-network, the
Huber loss, Adam, the target-network sync and the PER priority refresh the
TD errors feed.  The golden experiments round costs to three decimals, so
they cannot tell a last-bit drift in any of these from none.
``dqn_stream.json`` can: one seeded script drives a ``DDDQNAgent`` over a few
thousand transitions for every combination of dueling on/off, double on/off
and prioritized/uniform replay, and records

* every ``TrainStepStats`` (loss, mean |TD error|, mean Q), as a SHA-256 of
  their float64 bytes per block of steps plus the ``float.hex`` of each
  block's last step, so a divergence is located to its block;
* a SHA-256 of the actions the agent chose;
* a SHA-256 of the final online and target parameter bytes.

The script reaches the Huber loss's linear region (rare large penalties), a
replay ring that wraps, target syncs, episode ends and β annealing past 1.
To re-record after an *intentional* stream change::

    PYTHONPATH=src python tests/core/test_dqn_stream.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.mdp import Transition

FIXTURE = Path(__file__).with_name("dqn_stream.json")

STATE_DIM = 15
TRANSITIONS = 3_000
BLOCK = 100

BASE_CONFIG = DQNConfig(
    hidden_sizes=(48, 32),
    learning_rate=1e-3,
    batch_size=32,
    buffer_capacity=1_024,
    train_frequency=2,
    target_sync_frequency=25,
    epsilon_decay_steps=1_500,
    epsilon_end=0.05,
    warmup_transitions=64,
    per_beta_steps=600,
    huber_delta=2.0,
    seed=11,
)

VARIANTS = [
    {"dueling": dueling, "double": double, "prioritized": prioritized}
    for dueling, double, prioritized in itertools.product((True, False), repeat=3)
]


def _variant_name(variant: Dict[str, bool]) -> str:
    return ",".join(f"{key}={int(value)}" for key, value in variant.items())


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def run_stream(variant: Dict[str, bool]) -> Dict[str, object]:
    """Drive one seeded agent through the script; return its record."""
    agent = DDDQNAgent(STATE_DIM, BASE_CONFIG.with_overrides(**variant))
    rng = np.random.default_rng(2025)
    stats: List[List[float]] = []
    actions: List[int] = []
    state = rng.normal(size=STATE_DIM)
    for _ in range(TRANSITIONS):
        action = agent.act(state)
        actions.append(action)
        # Mostly small rewards; a rare large penalty lands far outside the
        # Huber transition point, as an uncorrected error does.
        reward = float(rng.normal()) - (40.0 if rng.random() < 0.02 else 0.0)
        done = bool(rng.random() < 0.05)
        next_state = rng.normal(size=STATE_DIM)
        step = agent.observe(Transition(state, action, reward, next_state, done))
        if step is not None:
            stats.append([step.loss, step.mean_abs_td_error, step.mean_q])
        state = rng.normal(size=STATE_DIM) if done else next_state

    blocks = []
    for start in range(0, len(stats), BLOCK):
        chunk = stats[start : start + BLOCK]
        blocks.append(
            {
                "steps": f"{start}-{start + len(chunk) - 1}",
                "sha256": _sha256([chunk]),
                "last": [float(value).hex() for value in chunk[-1]],
            }
        )
    return {
        "variant": _variant_name(variant),
        "train_steps": agent.train_steps,
        "stats": blocks,
        "max_mean_abs_td_error": max(step[1] for step in stats).hex(),
        "actions_sha256": hashlib.sha256(bytes(actions)).hexdigest(),
        "online_sha256": _sha256(agent.online.parameters()),
        "target_sha256": _sha256(agent.target.parameters()),
    }


def _recorded() -> Dict[str, Dict[str, object]]:
    return {record["variant"]: record for record in json.loads(FIXTURE.read_text())}


@pytest.mark.parametrize("variant", VARIANTS, ids=_variant_name)
def test_stream_matches_recording(variant):
    want = _recorded()[_variant_name(variant)]
    got = run_stream(variant)
    assert got["train_steps"] == want["train_steps"]
    for got_block, want_block in zip(got["stats"], want["stats"]):
        assert got_block == want_block, f"stats diverged in steps {want_block['steps']}"
    assert got["max_mean_abs_td_error"] == want["max_mean_abs_td_error"]
    assert got["actions_sha256"] == want["actions_sha256"]
    assert got["online_sha256"] == want["online_sha256"]
    assert got["target_sha256"] == want["target_sha256"]


def test_recording_exercises_huber_sync_and_anneal():
    """Guard the script's coverage, not just its output."""
    recorded = _recorded()
    assert set(recorded) == {_variant_name(variant) for variant in VARIANTS}
    for record in recorded.values():
        steps = record["train_steps"]
        # Several target syncs and β annealed past its horizon.
        assert steps > 2 * BASE_CONFIG.per_beta_steps
        assert steps > 10 * BASE_CONFIG.target_sync_frequency
        # The ring wrapped.
        assert TRANSITIONS > BASE_CONFIG.buffer_capacity
        assert len(record["stats"]) == -(-steps // BLOCK)
        # A batch whose mean |TD error| exceeds δ holds an error in the
        # Huber loss's linear region.
        assert float.fromhex(record["max_mean_abs_td_error"]) > BASE_CONFIG.huber_delta


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps([run_stream(variant) for variant in VARIANTS], indent=1) + "\n"
    )
    print(f"wrote {FIXTURE}")
