"""Scalar reference oracle of the policy replay and its accounting.

``repro.evaluation.runner.evaluate_policy`` resolves one decision mask per
replay (batched ``decide_rows``, or a ``decide()`` loop when the policy
declines) and scores it with a segmented scan over the whole panel.  This
per-event loop is the original replay it must reproduce bit for bit — the
costs (UE totals included), the confusion counts and the number of
decision points (``tests/evaluation/test_decision_core.py``,
``test_lockstep_edges.py``) — and the scalar leg of the decision-core
benchmark's ``replay_speedup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.policies import DecisionContext, MitigationPolicy
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.metrics import ConfusionCounts
from repro.evaluation.runner import EvaluationTrace, PolicyEvaluation
from repro.utils.timeutils import DAY


@dataclass
class _ReplayAccumulator:
    """Counters and cost streams collected while replaying traces.

    The float totals are folded only at the end: per-event UE costs are
    collected per trace (in event order) and left-folded with
    ``np.add.accumulate``; the mitigation total is the same fold of
    ``mitigation_cost`` repeated once per mitigation.
    """

    n_ues: int = 0
    n_mitigations: int = 0
    n_no_actions: int = 0
    true_positives: int = 0
    n_ues_without_preceding_event: int = 0
    n_decision_points: int = 0
    ue_cost_chunks: List[np.ndarray] = field(default_factory=list)

    def ue_cost_total(self) -> float:
        if not self.ue_cost_chunks:
            return 0.0
        costs = np.concatenate(self.ue_cost_chunks)
        if costs.size == 0:
            return 0.0
        return float(np.add.accumulate(costs)[-1])

    def mitigation_cost_total(self, mitigation_cost: float) -> float:
        if self.n_mitigations == 0:
            return 0.0
        repeated = np.full(self.n_mitigations, mitigation_cost)
        return float(np.add.accumulate(repeated)[-1])


def _replay_scalar(
    trace: EvaluationTrace,
    policy: MitigationPolicy,
    accumulator: _ReplayAccumulator,
    restartable: bool,
    prediction_window_seconds: float,
    mitigation_overhead_seconds: float,
) -> None:
    """Per-event replay of one trace: decisions and accounting together."""
    last_mitigation: Optional[float] = None
    mitigation_times: List[float] = []
    ue_costs: List[float] = []

    for i in range(len(trace)):
        t = float(trace.times[i])
        cost_now = trace.timeline.potential_ue_cost(t, last_mitigation, restartable)

        if trace.is_ue[i]:
            accumulator.n_ues += 1
            ue_costs.append(cost_now)
            # Classical ML metrics bookkeeping (Section 4.4).
            window_start = t - prediction_window_seconds
            completed = [
                m
                for m in mitigation_times
                if window_start <= m <= t - mitigation_overhead_seconds
            ]
            has_preceding_event = bool(
                np.any(
                    (~trace.is_ue[:i])
                    & (trace.times[:i] >= window_start)
                    & (trace.times[:i] < t)
                )
            )
            if completed:
                accumulator.true_positives += 1
            if not has_preceding_event:
                accumulator.n_ues_without_preceding_event += 1
            # The node is rebooted after the UE; the next job starts fresh.
            last_mitigation = None
            continue

        accumulator.n_decision_points += 1
        context = DecisionContext(
            time=t,
            node=trace.node,
            features=trace.features[i],
            ue_cost=cost_now,
            is_last_event_before_ue=bool(trace.is_last_before_ue[i]),
            event_index=i,
        )
        if policy.decide(context):
            accumulator.n_mitigations += 1
            mitigation_times.append(t)
            last_mitigation = t
        else:
            accumulator.n_no_actions += 1

    accumulator.ue_cost_chunks.append(np.asarray(ue_costs, dtype=np.float64))


def evaluate_policy_reference(
    traces: Sequence[EvaluationTrace],
    policy: MitigationPolicy,
    mitigation_cost: float,
    restartable: bool = True,
    prediction_window_seconds: float = DAY,
    mitigation_overhead_seconds: Optional[float] = None,
    include_training_cost: bool = True,
) -> PolicyEvaluation:
    """Per-event reference implementation of ``evaluate_policy``.

    Takes the same arguments; every trace is replayed with ``reset`` and
    ``prepare_trace`` followed by one ``decide()`` call per non-UE event.
    """
    if mitigation_overhead_seconds is None:
        mitigation_overhead_seconds = mitigation_cost * 3600.0

    accumulator = _ReplayAccumulator()
    for trace in traces:
        policy.reset()
        policy.prepare_trace(trace.features)
        _replay_scalar(
            trace,
            policy,
            accumulator,
            restartable,
            prediction_window_seconds,
            mitigation_overhead_seconds,
        )

    n_ues = accumulator.n_ues
    n_mitigations = accumulator.n_mitigations
    true_positives = accumulator.true_positives
    false_negatives = n_ues - true_positives
    false_positives = n_mitigations - true_positives
    non_mitigations = (
        accumulator.n_no_actions + accumulator.n_ues_without_preceding_event
    )
    true_negatives = max(0, non_mitigations - false_negatives)

    training_cost = policy.training_cost_node_hours if include_training_cost else 0.0
    costs = CostBreakdown(
        ue_cost=accumulator.ue_cost_total(),
        mitigation_cost=accumulator.mitigation_cost_total(mitigation_cost),
        training_cost=training_cost,
        n_ues=n_ues,
        n_mitigations=n_mitigations,
    )
    confusion = ConfusionCounts(
        true_positives=true_positives,
        false_negatives=false_negatives,
        false_positives=false_positives,
        true_negatives=true_negatives,
    )
    return PolicyEvaluation(
        policy_name=policy.name,
        costs=costs,
        confusion=confusion,
        n_traces=len(traces),
        n_decision_points=accumulator.n_decision_points,
    )


def assert_matches_reference(reference, evaluation) -> None:
    """Assert two evaluations agree bit for bit.

    The float totals are compared by ``float.hex``, so a difference in the
    last bit (or a ``-0.0``) fails too; the counts and the number of
    decision points must be equal.
    """
    name = reference.policy_name
    for attribute in ("ue_cost", "mitigation_cost", "training_cost"):
        expected = getattr(reference.costs, attribute)
        got = getattr(evaluation.costs, attribute)
        assert float(got).hex() == float(expected).hex(), (name, attribute)
    assert evaluation.costs == reference.costs, name
    assert evaluation.confusion == reference.confusion, name
    assert evaluation.n_decision_points == reference.n_decision_points, name
    assert evaluation.n_traces == reference.n_traces, name
