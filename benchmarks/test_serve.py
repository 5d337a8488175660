"""Benchmark: the online micro-batched decision service (``repro.serve``).

Opt-in (marked ``slow``): run with

    python -m pytest benchmarks/test_serve.py -m slow -s

One service benchmark over ``ScenarioConfig.benchmark()``, asserting
*bit-identical results* before recording any timing:

``equivalence``
    The served decision masks and cost totals must equal the offline
    ``replay_decision_masks`` / ``evaluate_policy`` of the same stream —
    for the SC20 forest AND the RL policy (the ISSUE acceptance bar).
``firehose``
    The whole reduced log replayed unthrottled through the forest policy:
    steady-state decision throughput (decisions/s), tick-latency
    percentiles, and the batch-size histogram of the micro-batcher.
``storm``
    The same log replayed *at speed* — the entire multi-month stream
    compressed into ~``REPRO_BENCH_STORM_SECONDS`` of wall time — so UE
    bursts arrive as concurrent per-node backlogs.  The mean decision
    batch must stay > 1: the batcher must actually coalesce the storm.
``batched vs scalar``
    The same service run with the policy's vectorized ``decide_nodes``
    vs a wrapper forcing the base-class per-row ``decide`` loop.  Masks
    must be identical; the decision-time ratio is the micro-batching
    speedup (one forest gather per tick vs one tree walk per node).

The JSON lands in ``BENCH_serve.json`` in the repository root (override
the directory with ``REPRO_BENCH_OUTPUT_DIR``).  CI uploads it and gates
with ``benchmarks/check_bench_regression.py`` against the committed
baseline: ``results_identical`` and the mean-batch floors are structural,
the batched-vs-scalar speedup is a schedule-independent single-process
ratio gated on any runner, and absolute decisions/s / latency numbers are
recorded for the perf trajectory but never compared across machines.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.config import ScenarioConfig
from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.features import StateNormalizer, build_feature_tracks
from repro.core.policies import DecisionContext, MitigationPolicy, RLPolicy
from repro.evaluation.runner import (
    build_traces,
    evaluate_policy,
    replay_decision_masks,
)
from repro.serve import ServeConfig, TimelineJobProvider, serve_log
from repro.telemetry.generator import TelemetryGenerator
from repro.telemetry.reduction import prepare_log
from repro.utils.rng import RngFactory
from repro.utils.timeutils import DAY
from repro.workload.generator import WorkloadGenerator
from repro.workload.sampling import JobSequenceSampler

pytestmark = pytest.mark.slow

REPS = int(os.environ.get("REPRO_BENCH_SERVE_REPS", "3"))
STORM_SECONDS = float(os.environ.get("REPRO_BENCH_STORM_SECONDS", "1.0"))
MITIGATION_COST = 2 / 60.0  # node-hours (the paper's 2 node-minute point)


def _output_path() -> str:
    directory = os.environ.get(
        "REPRO_BENCH_OUTPUT_DIR",
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    return os.path.join(directory, "BENCH_serve.json")


class _ScalarServing(MitigationPolicy):
    """Forces the base-class per-row ``decide`` loop at serving time."""

    name = "scalar-fallback"
    cost_dependent = True

    def __init__(self, inner: MitigationPolicy) -> None:
        self._inner = inner

    def decide(self, context: DecisionContext) -> bool:
        return self._inner.decide(context)


def _setup():
    """The benchmark stream: reduced log, traces, jobs, trained policies."""
    scenario = ScenarioConfig.benchmark(seed=2024)
    factory = RngFactory(scenario.seed)
    raw = TelemetryGenerator(
        scenario.topology,
        scenario.fault_model,
        scenario.duration_seconds,
        seed=factory.child("telemetry"),
    ).generate()
    log, _ = prepare_log(raw, scenario.evaluation.ue_burst_window_seconds)
    merge_window = scenario.evaluation.merge_window_seconds
    tracks = build_feature_tracks(log, merge_window)
    job_log = WorkloadGenerator(
        scenario.workload,
        n_cluster_nodes=scenario.topology.n_nodes,
        duration_seconds=scenario.duration_seconds,
        seed=factory.stream("workload"),
    ).generate()
    sampler = JobSequenceSampler(job_log, seed=factory.stream("sampler"))
    t_max = float(log.time[-1])
    traces = build_traces(tracks, sampler, 0.0, t_max + 1.0, seed=97)
    jobs = TimelineJobProvider({trace.node: trace.timeline for trace in traces})

    dataset = build_prediction_dataset(
        tracks,
        prediction_window_seconds=DAY,
        t_start=0.0,
        t_end=0.25 * scenario.duration_seconds,
    )
    forest_model = train_sc20_forest(dataset, n_estimators=16, max_depth=8, seed=3)
    forest = SC20RandomForestPolicy(forest_model, threshold=0.4)
    normalizer = StateNormalizer()
    agent = DDDQNAgent(
        normalizer.state_dim, DQNConfig(hidden_sizes=(32, 16), seed=17)
    )
    rl = RLPolicy(agent, normalizer)
    return log, traces, jobs, merge_window, forest, rl


def _config(merge_window, **overrides) -> ServeConfig:
    settings = dict(
        mitigation_cost_node_hours=MITIGATION_COST,
        restartable=True,
        merge_window_seconds=merge_window,
        keep_decisions=False,
    )
    settings.update(overrides)
    return ServeConfig(**settings)


def _masks_equal(a, b) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[n], b[n]) for n in a)


def _serve_matches_offline(log, traces, jobs, policy, config) -> bool:
    """Bit-identity of one served run against the offline replay."""
    report = serve_log(log, policy, jobs, config)
    offline = {
        trace.node: mask
        for trace, mask in zip(
            traces, replay_decision_masks(traces, policy, restartable=True)
        )
    }
    evaluation = evaluate_policy(
        traces,
        policy,
        MITIGATION_COST,
        restartable=True,
        include_training_cost=False,
    )
    return (
        _masks_equal(report.masks, offline)
        and report.ue_cost_node_hours == evaluation.costs.ue_cost
        and report.mitigation_cost_node_hours == evaluation.costs.mitigation_cost
        and report.n_decision_points == evaluation.n_decision_points
    )


def _best_report(log, policy, jobs, config, speed=None, reps=REPS):
    """The rep with the best wall clock (warm caches, steady state)."""
    best = None
    for _ in range(reps):
        report = serve_log(log, policy, jobs, config, speed=speed)
        if best is None or report.wall_seconds < best.wall_seconds:
            best = report
    return best


@pytest.mark.slow
def test_serve_throughput_and_equivalence():
    log, traces, jobs, merge_window, forest, rl = _setup()
    record = {
        "benchmark": "serve",
        "cpu_count": os.cpu_count(),
        "reps": REPS,
        "n_nodes": len(traces),
        "n_events": len(log),
    }

    # -- equivalence: serve == offline replay, forest AND RL ------------- #
    config = _config(merge_window)
    identical = _serve_matches_offline(log, traces, jobs, forest, config)
    identical = _serve_matches_offline(log, traces, jobs, rl, config) and identical

    # -- firehose: unthrottled replay through the forest ----------------- #
    firehose = _best_report(log, forest, jobs, config)
    record.update(
        {
            "n_steps": firehose.n_steps,
            "n_decision_points": firehose.n_decision_points,
            "n_ticks": firehose.n_ticks,
            "wall_seconds": round(firehose.wall_seconds, 4),
            "decisions_per_sec": round(firehose.decisions_per_second),
            "tick_p50_ms": round(firehose.latency_seconds(50) * 1e3, 4),
            "tick_p99_ms": round(firehose.latency_seconds(99) * 1e3, 4),
            "mean_batch_size": round(firehose.mean_batch_size, 2),
            "batch_size_histogram": {
                str(size): count
                for size, count in firehose.batch_size_histogram().items()
            },
        }
    )
    rl_firehose = _best_report(log, rl, jobs, config)
    record["rl_decisions_per_sec"] = round(rl_firehose.decisions_per_second)
    record["rl_tick_p99_ms"] = round(rl_firehose.latency_seconds(99) * 1e3, 4)

    # -- storm: the whole stream replayed at speed ----------------------- #
    span = float(log.time[-1] - log.time[0])
    storm_speed = span / STORM_SECONDS
    storm = _best_report(
        log, forest, jobs, config, speed=storm_speed, reps=1
    )
    identical = _masks_equal(storm.masks, firehose.masks) and identical
    record.update(
        {
            "storm_speed": round(storm_speed),
            "storm_wall_seconds": round(storm.wall_seconds, 4),
            "storm_decisions_per_sec": round(storm.decisions_per_second),
            "storm_tick_p99_ms": round(storm.latency_seconds(99) * 1e3, 4),
            "storm_mean_batch_size": round(storm.mean_batch_size, 2),
        }
    )

    # -- batched vs scalar serving: same masks, decision-time ratio ------ #
    scalar_best = None
    for _ in range(REPS):
        report = serve_log(log, _ScalarServing(forest), jobs, config)
        seconds = float(report.tick_latencies.sum())
        if scalar_best is None or seconds < scalar_best[0]:
            scalar_best = (seconds, report)
    scalar_seconds, scalar_report = scalar_best
    batched_seconds = float(firehose.tick_latencies.sum())
    identical = _masks_equal(scalar_report.masks, firehose.masks) and identical
    record.update(
        {
            "batched_decision_seconds": round(batched_seconds, 4),
            "scalar_decision_seconds": round(scalar_seconds, 4),
            "batched_vs_scalar_speedup": round(scalar_seconds / batched_seconds, 3),
        }
    )
    record["results_identical"] = identical

    path = _output_path()
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"\nfirehose: {record['decisions_per_sec']:,} decisions/s, "
        f"tick p50 {record['tick_p50_ms']:.2f} ms / "
        f"p99 {record['tick_p99_ms']:.2f} ms, "
        f"mean batch {record['mean_batch_size']:.1f}"
        f"\nstorm:    {record['storm_decisions_per_sec']:,} decisions/s at "
        f"{record['storm_speed']:,}x, p99 {record['storm_tick_p99_ms']:.2f} ms, "
        f"mean batch {record['storm_mean_batch_size']:.1f}"
        f"\nbatched:  {record['scalar_decision_seconds']:.2f}s -> "
        f"{record['batched_decision_seconds']:.2f}s  "
        f"({record['batched_vs_scalar_speedup']:.1f}x over the scalar loop)"
        f"\nwritten: {path}"
    )

    # Correctness is non-negotiable: the served decisions must reproduce
    # the offline replay exactly before any throughput number matters.
    assert identical

    # The micro-batcher must actually coalesce: under the firehose and the
    # at-speed storm alike, the mean decision batch must exceed one node.
    assert record["mean_batch_size"] > 1.0
    assert record["storm_mean_batch_size"] > 1.0

    # Batched serving is a schedule-independent single-process ratio, so
    # even a throttled single-core runner must keep it at or above parity.
    assert record["batched_vs_scalar_speedup"] >= 1.0
