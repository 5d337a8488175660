"""Table 2 — classical machine-learning metrics (TP / FN / FP / TN,
mitigations, recall, precision) for every approach, plus the RL policy under
three uniformly distributed potential-UE-cost regimes.

Paper result: Always-mitigate and the Oracle reach the maximum recall (63 %)
achievable by event-triggered policies because 25 of the 67 UEs have no event
in the preceding day; SC20-RF trades a little recall for far fewer false
positives; the RL policy is the only approach whose operating point moves with
the potential UE cost — low recall when UEs would be cheap, Always-mitigate-
like behaviour when they would cost more than 1000 node–hours.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.policies import MitigationPolicy
from repro.evaluation.report import format_metrics_table
from repro.evaluation.runner import build_traces, evaluate_policy
from repro.core.features import build_feature_tracks


UE_COST_RANGES = {
    "RL (UE cost < 100 node-h)": (1.0, 100.0),
    "RL (100 <= UE cost < 1000)": (100.0, 1000.0),
    "RL (UE cost >= 1000 node-h)": (1000.0, 32000.0),
}


class _DrawnCostPolicy(MitigationPolicy):
    """``policy`` shown a uniformly drawn potential UE cost at every event.

    Each draw is seeded by ``(node, event_index, range_index)``, so a row
    of the table is the same in every process and run.  Only the decisions
    change: the confusion counts are read off the resulting mask.
    """

    def __init__(self, policy, low, high, range_index):
        self.policy = policy
        self.name = policy.name
        self.low = low
        self.high = high
        self.range_index = range_index

    def reset(self):
        self.policy.reset()

    def prepare_trace(self, features):
        self.policy.prepare_trace(features)

    def decide(self, context):
        rng = np.random.default_rng(
            (context.node, context.event_index, self.range_index)
        )
        drawn = float(rng.uniform(self.low, self.high))
        return self.policy.decide(replace(context, ue_cost=drawn))


@pytest.mark.benchmark(group="table2")
def test_table2_ml_metrics(benchmark, headline_experiment, scenario):
    result = headline_experiment

    def run():
        metrics = dict(result.confusions())
        # Re-evaluate the trained RL policy of the final split under synthetic
        # uniformly-distributed potential-UE-cost regimes (last three rows of
        # Table 2).  The same trained policy and the same telemetry are used;
        # only the cost presented to the agent changes.
        if result.final_rl_policy is not None:
            from repro.telemetry.generator import TelemetryGenerator
            from repro.telemetry.reduction import prepare_log
            from repro.workload.generator import WorkloadGenerator
            from repro.workload.sampling import JobSequenceSampler

            error_log = TelemetryGenerator(
                scenario.topology,
                scenario.fault_model,
                scenario.duration_seconds,
                seed=scenario.seed,
            ).generate()
            reduced, _ = prepare_log(error_log)
            tracks = build_feature_tracks(reduced)
            job_log = WorkloadGenerator(
                scenario.workload,
                n_cluster_nodes=scenario.topology.n_nodes,
                duration_seconds=scenario.duration_seconds,
                seed=scenario.seed,
            ).generate()
            sampler = JobSequenceSampler(job_log, seed=1)
            last_split = result.splits[-1]
            traces = build_traces(
                tracks, sampler, *last_split.test_range, seed=99
            )
            for index, (label, (low, high)) in enumerate(UE_COST_RANGES.items()):
                evaluation = evaluate_policy(
                    traces,
                    _DrawnCostPolicy(result.final_rl_policy, low, high, index),
                    scenario.evaluation.mitigation_cost_node_hours,
                    include_training_cost=False,
                )
                metrics[label] = evaluation.confusion
        return metrics

    metrics = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(format_metrics_table(metrics))

    never = metrics["Never-mitigate"]
    always = metrics["Always-mitigate"]
    oracle = metrics["Oracle"]
    sc20 = metrics["SC20-RF"]

    # Never-mitigate: zero recall, undefined precision.
    assert never.recall == 0.0 and never.precision is None
    # Always-mitigate and the Oracle share the maximum achievable recall.
    assert always.recall == pytest.approx(oracle.recall, abs=1e-9)
    assert always.recall > 0.3
    # The Oracle has (near-)perfect precision; Always-mitigate the worst.
    assert (oracle.precision or 0) > 0.7
    assert (always.precision or 0) <= (sc20.precision or 0) + 1e-9
    # SC20-RF performs no more mitigations than Always-mitigate (and usually
    # far fewer, unless its optimal threshold degenerates to zero).
    assert sc20.n_mitigations <= always.n_mitigations

    # The RL agent's mitigation rate grows with the potential UE cost
    # (adaptivity); a small tolerance absorbs sampling noise.
    low = metrics.get("RL (UE cost < 100 node-h)")
    high = metrics.get("RL (UE cost >= 1000 node-h)")
    if low is not None and high is not None and high.n_ues:
        assert high.n_mitigations >= 0.8 * low.n_mitigations
