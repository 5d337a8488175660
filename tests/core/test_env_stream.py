"""Recorded environment stream: ``MitigationEnv`` must reproduce it bit for bit.

RL training (and so every golden experiment fingerprint) depends on each bit
of what the environment hands the agent: the normalised state of every
step, the reward, the done flag, and which node and job timeline each
episode draws from the environment's generator.  ``env_stream.json`` pins
that stream for one seeded script over a small synthetic scenario, with
checkpointing (restartable jobs) on and off.  The script

* has tracks that start with UE events (skipped at reset), end with and
  without a UE, and features that are negative, zero, large, and ratio
  features beyond the clip;
* drives a fixed seeded action sequence over full episodes.

Per episode it records a SHA-256 of every state's float64 bytes, the
``float.hex`` of every reward and UE cost, the done flags, and the episode
summary.  To re-record after an *intentional* stream change::

    PYTHONPATH=src python tests/core/test_env_stream.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from repro.core.environment import MitigationEnv
from repro.core.features import (
    FEATURE_INDEX,
    N_FEATURES,
    NodeFeatureTrack,
    StateNormalizer,
)
from repro.core.mdp import Action
from repro.utils.timeutils import DAY, HOUR
from repro.workload.job import JobLog, JobRecord
from repro.workload.sampling import JobSequenceSampler

FIXTURE = Path(__file__).with_name("env_stream.json")

N_NODES = 6
EPISODES = 60
HORIZON = 20 * DAY
MITIGATION_COST = 0.25
RESTARTABLE = (True, False)


def _scenario():
    """Seeded feature tracks and job log (no telemetry generator involved)."""
    rng = np.random.default_rng(707)
    ratio = [FEATURE_INDEX[name] for name in StateNormalizer.RATIO_FEATURES]
    tracks: Dict[int, NodeFeatureTrack] = {}
    for node in range(N_NODES):
        n = int(rng.integers(20, 60))
        features = rng.lognormal(0.0, 2.5, size=(n, N_FEATURES))
        features[rng.random(features.shape) < 0.2] = 0.0
        features[rng.random(features.shape) < 0.05] *= -1.0
        features[:, ratio] = rng.uniform(-10.0, 80.0, size=(n, len(ratio)))
        is_ue = rng.random(n) < 0.06
        if node == 0:
            is_ue[:2] = True  # leading UEs are skipped at reset
        tracks[node] = NodeFeatureTrack(
            node=node,
            times=np.sort(rng.uniform(0.0, HORIZON, size=n)),
            features=features,
            is_ue=is_ue,
        )
    scales = (1, 2, 4, 16, 64, 256)
    jobs = []
    for job_id in range(12):
        duration = float(rng.uniform(0.5 * HOUR, 3 * DAY))
        jobs.append(
            JobRecord(
                submit=0.0,
                start=0.0,
                end=duration,
                n_nodes=scales[job_id % len(scales)],
                job_id=job_id,
            )
        )
    return tracks, JobLog.from_records(jobs)


def _env(restartable: bool) -> MitigationEnv:
    tracks, log = _scenario()
    return MitigationEnv(
        tracks,
        JobSequenceSampler(log, seed=5),
        mitigation_cost=MITIGATION_COST,
        restartable=restartable,
        seed=31,
    )


def _actions(restartable: bool):
    rng = np.random.default_rng(99 + int(restartable))
    while True:
        yield Action.MITIGATE if rng.random() < 0.25 else Action.NO_MITIGATION


def _hex(values) -> List[str]:
    return [float(value).hex() for value in values]


def run_stream(restartable: bool) -> List[Dict[str, object]]:
    """Run the scripted episodes; one record per episode."""
    env = _env(restartable)
    actions = _actions(restartable)
    records: List[Dict[str, object]] = []
    for _ in range(EPISODES):
        states = [env.reset()]
        rewards, ue_costs, dones = [], [], []
        done = False
        while not done:
            state, reward, done, info = env.step(next(actions))
            rewards.append(reward)
            ue_costs.append(info["ue_cost"])
            dones.append(done)
            if state is not None:
                states.append(state)
        summary = env.episode_summary()
        digest = hashlib.sha256()
        for state in states:
            digest.update(np.ascontiguousarray(state, dtype=np.float64).tobytes())
        records.append(
            {
                "node": summary.node,
                "states_sha256": digest.hexdigest(),
                "rewards": _hex(rewards),
                "ue_costs": _hex(ue_costs),
                "dones": "".join(str(int(done)) for done in dones),
                "summary": [
                    summary.n_steps,
                    summary.n_mitigations,
                    summary.ue_occurred,
                    *_hex(
                        (summary.total_reward, summary.mitigation_cost, summary.ue_cost)
                    ),
                ],
            }
        )
    return records


def _name(restartable: bool) -> str:
    return f"restartable={int(restartable)}"


def _recorded() -> Dict[str, List[Dict[str, object]]]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("restartable", RESTARTABLE, ids=_name)
def test_stream_matches_recording(restartable):
    want = _recorded()[_name(restartable)]
    got = run_stream(restartable)
    assert len(got) == len(want)
    for episode, (got_record, want_record) in enumerate(zip(got, want)):
        assert got_record == want_record, f"episode {episode} diverged"


def test_recording_exercises_ues_mitigations_and_track_ends():
    """Guard the script's coverage, not just its output."""
    for records in _recorded().values():
        summaries = [record["summary"] for record in records]
        assert len({record["node"] for record in records}) == N_NODES
        assert any(ue for _, _, ue, *_ in summaries)
        assert not all(ue for _, _, ue, *_ in summaries)
        assert sum(mitigations > 0 for _, mitigations, *_ in summaries) > EPISODES // 2
        assert all(record["dones"].endswith("1") for record in records)
        assert all(record["dones"].count("1") == 1 for record in records)


@pytest.mark.parametrize("restartable", RESTARTABLE, ids=_name)
def test_states_equal_the_normalizer_state_vector(restartable):
    """Every state is ``state_vector(features, potential UE cost)``, bitwise,
    and stays so: later steps and episodes must not write into it."""
    env = _env(restartable)
    actions = _actions(restartable)
    returned = []
    for _ in range(EPISODES // 2):
        state = env.reset()
        episode = env._episode
        track, timeline = episode.track, episode.timeline
        index = int(np.argmin(track.is_ue))  # first decision point
        last_mitigation = None
        done = False
        while not done:
            ue_cost = timeline.potential_ue_cost(
                float(track.times[index]), last_mitigation, restartable
            )
            want = env.normalizer.state_vector(track.features[index], ue_cost)
            assert state.tobytes() == want.tobytes()
            returned.append((state, want))
            action = next(actions)
            if action == Action.MITIGATE:
                last_mitigation = float(track.times[index])
            state, _, done, _ = env.step(action)
            index += 1
    assert all(state.tobytes() == want.tobytes() for state, want in returned)


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps({_name(flag): run_stream(flag) for flag in RESTARTABLE}, indent=1)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
