"""Benchmark: the vectorized decision core vs the scalar reference oracles.

Opt-in (marked ``slow``): run with

    python -m pytest benchmarks/test_decision_core.py -m slow -s

with BLAS pinned to one thread (``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1), as
``perfbench/`` and CI do.  A threaded BLAS makes the lockstep walk's many small per-round forwards
noisy on small hosts: unpinned, the RL/restart=on vector-over-scalar ratio
can fall below its gate on a 2-vCPU machine at no fault of the code.

Three microbenchmarks over ``ScenarioConfig.benchmark()``, all asserting
*identical results* between the scalar and vectorized implementations
before recording any timing:

``replay``
    The Section 4.2 approach panel (Never/Always, the SC20-RF family,
    Myopic-RF, a briefly trained RL agent, Oracle) replayed over the test
    traces under both checkpointing settings (``restartable`` on/off — the
    Figure 3 axis): the per-event reference replay
    (``tests/evaluation/replay_reference.py``) vs ``evaluate_policy``, the
    batched decision core.  Timings are
    best-of-``REPRO_BENCH_DECISION_REPS`` with warm caches, matching the
    steady state of the per-split replay loop.
``per``
    Prioritized-replay sample + priority-update rounds: the per-draw
    sum-tree walks of ``tests/core/replay_reference.py`` vs the vectorized
    batch path.
``features``
    Table 1 feature-track extraction over the benchmark error log: the
    reference per-event loop vs the cumulative-array implementation.

The JSON lands in ``BENCH_decision_core.json`` in the repository root
(override the directory with ``REPRO_BENCH_OUTPUT_DIR``).  CI uploads it
and gates with ``benchmarks/check_bench_regression.py`` against the
committed baseline: the vector-vs-scalar speedups are schedule-independent
ratios, so they must stay >= 1 on *any* runner, and must not regress by
more than the tolerance against the baseline.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
for _path in (_SRC, _ROOT):  # the package, and the tests' scalar oracles
    if _path not in sys.path:  # pragma: no cover - environment dependent
        sys.path.insert(0, _path)

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.myopic import MyopicRFPolicy
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.baselines.static import (
    AlwaysMitigatePolicy,
    NeverMitigatePolicy,
    OraclePolicy,
)
from repro.config import ScenarioConfig
from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.environment import MitigationEnv
from repro.core.features import StateNormalizer, extract_node_features
from repro.core.mdp import Transition
from repro.core.policies import RLPolicy
from repro.core.replay import PrioritizedReplayBuffer
from repro.core.trainer import train_agent
from repro.evaluation.pipeline import ExperimentConfig, prepare_data
from repro.evaluation.runner import (
    build_traces,
    evaluate_policy,
    renewal_walk_stats,
)

from tests.core.feature_reference import extract_node_features_loop
from tests.core.replay_reference import sample_reference, update_priorities_reference
from tests.evaluation.replay_reference import evaluate_policy_reference

pytestmark = pytest.mark.slow

REPS = int(os.environ.get("REPRO_BENCH_DECISION_REPS", "3"))
MITIGATION_COST = 2 / 60.0  # node-hours (the paper's 2 node-minute point)


def _output_path() -> str:
    directory = os.environ.get(
        "REPRO_BENCH_OUTPUT_DIR",
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    return os.path.join(directory, "BENCH_decision_core.json")


def _best_of(fn, reps=REPS):
    timings = []
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - started)
    return min(timings), result


def _identical(a, b) -> bool:
    return (
        a.costs == b.costs
        and a.confusion == b.confusion
        and a.n_decision_points == b.n_decision_points
    )


def _build_panel(prepared, duration):
    """The Section 4.2 approach set, with realistically trained models."""
    split_point = 0.25 * duration
    dataset = build_prediction_dataset(
        prepared.tracks,
        prediction_window_seconds=86400.0,
        t_start=0.0,
        t_end=split_point,
    )
    forest = train_sc20_forest(dataset, n_estimators=25, max_depth=10, seed=3)
    sc20 = SC20RandomForestPolicy(forest, threshold=0.8)

    normalizer = StateNormalizer()
    train_tracks = {
        node: track.slice_time(0.0, split_point)
        for node, track in prepared.tracks.items()
    }
    train_tracks = {
        node: track
        for node, track in train_tracks.items()
        if len(track) and track.n_decision_points > 0
    }
    agent = DDDQNAgent(
        normalizer.state_dim,
        DQNConfig(
            hidden_sizes=(64, 48),
            seed=5,
            epsilon_decay_steps=2000,
            warmup_transitions=128,
            buffer_capacity=20000,
        ),
    )
    env = MitigationEnv(
        train_tracks,
        prepared.sampler,
        mitigation_cost=MITIGATION_COST,
        restartable=True,
        t_start=0.0,
        t_end=split_point,
        normalizer=normalizer,
        seed=11,
    )
    train_agent(env, agent, n_episodes=60)

    return [
        NeverMitigatePolicy(),
        AlwaysMitigatePolicy(),
        sc20,
        sc20.with_threshold(0.8, offset=0.02, name="SC20-RF-2%"),
        sc20.with_threshold(0.8, offset=0.05, name="SC20-RF-5%"),
        MyopicRFPolicy(sc20, MITIGATION_COST),
        RLPolicy(agent, normalizer),
        OraclePolicy(),
    ]


def _bench_replay(record):
    scenario = ScenarioConfig.benchmark(seed=2024)
    prepared = prepare_data(scenario, ExperimentConfig())
    duration = scenario.duration_seconds
    traces = build_traces(
        prepared.tracks, prepared.sampler, 0.25 * duration, duration, seed=42
    )
    n_events = sum(len(trace) for trace in traces)
    panel = _build_panel(prepared, duration)

    identical = True
    total_scalar = 0.0
    total_vector = 0.0
    per_policy = {}
    per_policy_seconds = {}
    walk_stats = {}
    for restartable in (True, False):
        for policy in panel:
            scalar_seconds, scalar_result = _best_of(
                lambda: evaluate_policy_reference(
                    traces, policy, MITIGATION_COST, restartable=restartable
                )
            )
            before = renewal_walk_stats()
            vector_seconds, vector_result = _best_of(
                lambda: evaluate_policy(
                    traces, policy, MITIGATION_COST, restartable=restartable
                )
            )
            after = renewal_walk_stats()
            stats = {name: after[name] - before[name] for name in after}
            identical = identical and _identical(scalar_result, vector_result)
            total_scalar += scalar_seconds
            total_vector += vector_seconds
            key = f"{policy.name}/restart={'on' if restartable else 'off'}"
            per_policy[key] = round(scalar_seconds / vector_seconds, 2)
            per_policy_seconds[key] = {
                "scalar": round(scalar_seconds, 4),
                "vector": round(vector_seconds, 4),
            }
            if stats["rounds"]:
                # Renewal-walk round/window/retry counts of one replay (the
                # counters accumulate across the best-of reps).
                walk_stats[key] = {
                    name: count // REPS for name, count in stats.items()
                }

    evaluations = 2 * len(panel)
    record.update(
        {
            "replay_n_traces": len(traces),
            "replay_n_events": n_events,
            "replay_evaluations": evaluations,
            "replay_scalar_seconds": round(total_scalar, 3),
            "replay_vector_seconds": round(total_vector, 3),
            "replay_events_per_sec_scalar": round(
                evaluations * n_events / total_scalar
            ),
            "replay_events_per_sec_vector": round(
                evaluations * n_events / total_vector
            ),
            "replay_speedup": round(total_scalar / total_vector, 3),
            "replay_speedup_by_policy": per_policy,
            "replay_seconds_by_policy": per_policy_seconds,
            "replay_walk_stats_by_policy": walk_stats,
        }
    )
    return identical


def _bench_per(record):
    rng = np.random.default_rng(7)

    def make_transitions(count):
        return [
            Transition(
                state=rng.normal(size=15),
                action=int(rng.integers(2)),
                reward=float(rng.normal()),
                next_state=rng.normal(size=15),
                done=False,
            )
        for _ in range(count)
        ]

    transitions = make_transitions(20_000)
    rounds = 400
    batch_size = 32

    def run(scalar: bool):
        buffer = PrioritizedReplayBuffer(50_000, seed=3)
        buffer.push_many(transitions)
        error_rng = np.random.default_rng(9)
        started = time.perf_counter()
        for _ in range(rounds):
            if scalar:
                batch = sample_reference(buffer, batch_size)
                update_priorities_reference(
                    buffer, batch.indices, error_rng.normal(size=batch_size) * 10
                )
            else:
                batch = buffer.sample(batch_size)
                buffer.update_priorities(
                    batch.indices, error_rng.normal(size=batch_size) * 10
                )
        return time.perf_counter() - started, buffer

    scalar_seconds, scalar_buffer = min(
        (run(scalar=True) for _ in range(REPS)), key=lambda pair: pair[0]
    )
    vector_seconds, vector_buffer = min(
        (run(scalar=False) for _ in range(REPS)), key=lambda pair: pair[0]
    )
    identical = bool(
        np.array_equal(scalar_buffer._tree._tree, vector_buffer._tree._tree)
    )
    samples = rounds * batch_size
    record.update(
        {
            "per_rounds": rounds,
            "per_batch_size": batch_size,
            "per_scalar_seconds": round(scalar_seconds, 3),
            "per_vector_seconds": round(vector_seconds, 3),
            "per_samples_per_sec_scalar": round(samples / scalar_seconds),
            "per_samples_per_sec_vector": round(samples / vector_seconds),
            "per_speedup": round(scalar_seconds / vector_seconds, 3),
        }
    )
    return identical


def _bench_features(record):
    scenario = ScenarioConfig.benchmark(seed=2024)
    from repro.telemetry.generator import TelemetryGenerator
    from repro.telemetry.reduction import prepare_log
    from repro.utils.rng import RngFactory

    log = TelemetryGenerator(
        scenario.topology,
        scenario.fault_model,
        scenario.duration_seconds,
        seed=RngFactory(scenario.seed).child("telemetry"),
    ).generate()
    reduced, _ = prepare_log(log, scenario.evaluation.ue_burst_window_seconds)
    slices = reduced.node_slices()

    def run(extract):
        started = time.perf_counter()
        tracks = {
            node: extract(reduced, node, indices)
            for node, indices in slices.items()
        }
        return time.perf_counter() - started, tracks

    scalar_seconds, scalar_tracks = min(
        (run(extract_node_features_loop) for _ in range(REPS)),
        key=lambda pair: pair[0],
    )
    vector_seconds, vector_tracks = min(
        (run(extract_node_features) for _ in range(REPS)), key=lambda pair: pair[0]
    )
    identical = all(
        np.array_equal(scalar_tracks[node].features, vector_tracks[node].features)
        and np.array_equal(scalar_tracks[node].times, vector_tracks[node].times)
        and np.array_equal(scalar_tracks[node].is_ue, vector_tracks[node].is_ue)
        for node in slices
    )
    record.update(
        {
            "feature_n_events": len(reduced),
            "feature_scalar_seconds": round(scalar_seconds, 3),
            "feature_vector_seconds": round(vector_seconds, 3),
            "feature_events_per_sec_scalar": round(len(reduced) / scalar_seconds),
            "feature_events_per_sec_vector": round(len(reduced) / vector_seconds),
            "feature_speedup": round(scalar_seconds / vector_seconds, 3),
        }
    )
    return identical


@pytest.mark.slow
def test_decision_core_vector_vs_scalar():
    record = {
        "benchmark": "decision_core",
        "cpu_count": os.cpu_count(),
        "reps": REPS,
    }
    identical = _bench_replay(record)
    identical = _bench_per(record) and identical
    identical = _bench_features(record) and identical
    record["results_identical"] = identical

    path = _output_path()
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"\nreplay:   {record['replay_scalar_seconds']:7.2f}s -> "
        f"{record['replay_vector_seconds']:7.2f}s  "
        f"({record['replay_speedup']:.1f}x, "
        f"{record['replay_events_per_sec_vector']:,} events/s)"
        f"\nPER:      {record['per_scalar_seconds']:7.2f}s -> "
        f"{record['per_vector_seconds']:7.2f}s  ({record['per_speedup']:.1f}x)"
        f"\nfeatures: {record['feature_scalar_seconds']:7.2f}s -> "
        f"{record['feature_vector_seconds']:7.2f}s  "
        f"({record['feature_speedup']:.1f}x)"
        f"\nwritten: {path}"
    )

    # Correctness is non-negotiable: the vectorized core must reproduce the
    # scalar results exactly before any speed number means anything.
    assert identical

    # The speedups are schedule-independent single-process ratios, so even
    # a throttled single-core runner must keep them at or above parity.
    # PER sampling at mini-batch size is dispatch-bound and sits near the
    # parity boundary by design; only a noise-tolerant floor is asserted.
    assert record["replay_speedup"] >= 1.0
    assert record["per_speedup"] >= 0.85
    assert record["feature_speedup"] >= 1.0
