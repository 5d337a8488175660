"""Edge cases of the lockstep renewal walk (the cross-trace replay).

The walk resolves every cost-feedback trace of the panel in rounds of one
``decide_rows`` call each; these tests pin the panel shapes that stress
its frontier bookkeeping — empty traces, single-event traces, wildly mixed
lengths, guesses that diverge every round — plus the decline contract: a
policy without window support falls back to the ``decide()`` loop for
*that policy's* replay while batch-capable policies keep the lockstep path.
Every case asserts the runner's replay is identical, bit for bit, to the
per-event oracle of ``replay_reference.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policies import MitigationPolicy
from repro.evaluation.runner import (
    EvaluationTrace,
    build_traces,
    evaluate_policy,
    renewal_walk_stats,
)
from repro.utils.rng import RngFactory

from .replay_reference import assert_matches_reference, evaluate_policy_reference

MITIGATION_COST = 2 / 60.0


def _walk_delta(before):
    """The renewal-walk counters since the ``renewal_walk_stats()`` ``before``."""
    after = renewal_walk_stats()
    return {name: after[name] - before[name] for name in after}


class _CostThresholdBatchPolicy(MitigationPolicy):
    """Cost-feedback policy with full ``decide_rows`` support.

    Mitigates while the potential UE cost exceeds a threshold — under
    restartable jobs each mitigation resets the cost, so its decisions feed
    back through the renewal walk.
    """

    name = "cost-threshold-batched"
    cost_dependent = True

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def decide(self, context) -> bool:
        return context.ue_cost > self.threshold

    def decide_rows(self, rows, ue_costs):
        return np.asarray(ue_costs, dtype=float) > self.threshold


class _InverseCostPolicy(MitigationPolicy):
    """Worst-case guesser bait: mitigates while the cost is *low*.

    Baseline (high-cost) candidates say "don't mitigate", but right after
    any mitigation the reset cost drops below the threshold and the policy
    mitigates again — so the walk's candidate-seeded guesses diverge
    essentially every round, exercising the longest seed-confirm chains.
    """

    name = "inverse-cost"
    cost_dependent = True

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def decide(self, context) -> bool:
        return context.ue_cost <= self.threshold

    def decide_rows(self, rows, ue_costs):
        return np.asarray(ue_costs, dtype=float) <= self.threshold


class _NoBatchCostPolicy(MitigationPolicy):
    """Cost-feedback policy without decide_rows: ``decide()`` loop only."""

    name = "no-batch"
    cost_dependent = True

    def __init__(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def decide(self, context) -> bool:
        return context.ue_cost > self.threshold


def _synthetic_trace(node, times, ue_flags, job_sampler, t_end):
    times = np.asarray(times, dtype=float)
    is_ue = np.asarray(ue_flags, dtype=bool)
    timeline = job_sampler.sample_timeline(
        0.0, t_end, rng=RngFactory(23).stream(f"edge-node-{node}")
    )
    return EvaluationTrace(
        node=node,
        times=times,
        features=np.zeros((times.size, 3)),
        is_ue=is_ue,
        is_last_before_ue=np.zeros(times.size, dtype=bool),
        timeline=timeline,
    )


def _mixed_panel(job_sampler):
    """Empty, single-event and wildly mixed-length traces in one panel."""
    t_end = 2_000_000.0
    rng = np.random.default_rng(1234)
    traces = [
        _synthetic_trace(0, [], [], job_sampler, t_end),  # empty
        _synthetic_trace(1, [50_000.0], [False], job_sampler, t_end),
        _synthetic_trace(2, [60_000.0], [True], job_sampler, t_end),  # lone UE
    ]
    for node, length in ((3, 2), (4, 500), (5, 7), (6, 133), (7, 31)):
        times = np.sort(rng.uniform(1_000.0, t_end - 1_000.0, size=length))
        ues = rng.random(length) < 0.08
        traces.append(_synthetic_trace(node, times, ues, job_sampler, t_end))
    return traces


def _assert_identical(traces, policy, restartable=True):
    reference = evaluate_policy_reference(
        traces, policy, MITIGATION_COST, restartable=restartable
    )
    evaluation = evaluate_policy(
        traces, policy, MITIGATION_COST, restartable=restartable
    )
    assert_matches_reference(reference, evaluation)
    return evaluation


class TestLockstepEdgeCases:
    @pytest.mark.parametrize("restartable", [True, False])
    def test_mixed_length_panel(self, job_sampler, restartable):
        """Empty + single-event + mixed-length traces replay identically."""
        traces = _mixed_panel(job_sampler)
        for threshold in (0.05, 1.0, 25.0):
            _assert_identical(
                traces, _CostThresholdBatchPolicy(threshold), restartable
            )

    def test_panel_of_only_empty_and_single_event_traces(self, job_sampler):
        t_end = 500_000.0
        traces = [
            _synthetic_trace(0, [], [], job_sampler, t_end),
            _synthetic_trace(1, [], [], job_sampler, t_end),
            _synthetic_trace(2, [1_000.0], [False], job_sampler, t_end),
            _synthetic_trace(3, [2_000.0], [True], job_sampler, t_end),
        ]
        _assert_identical(traces, _CostThresholdBatchPolicy(0.5))

    def test_all_diverge_every_round_worst_case(self, job_sampler):
        """A policy whose decisions contradict every candidate guess.

        The inverse-cost rule flips its answer at each mitigation-induced
        cost reset, so confirm prefixes stay short and the walk is forced
        through its longest seed-diverge-reseed chains — the worst case for
        the speculative scheduling, which must still match the scalar
        reference decision for decision.
        """
        traces = _mixed_panel(job_sampler)
        before = renewal_walk_stats()
        for threshold in (0.2, 2.0):
            _assert_identical(traces, _InverseCostPolicy(threshold))
        stats = _walk_delta(before)
        assert stats["rounds"] > 0 and stats["windows"] >= stats["rounds"]

    def test_real_traces_against_threshold_policies(
        self, feature_tracks, job_sampler
    ):
        """The synthetic-panel policies also replay the realistic traces."""
        times = [t.times for t in feature_tracks.values() if len(t)]
        t_max = max(float(t[-1]) for t in times)
        traces = build_traces(
            feature_tracks, job_sampler, 0.4 * t_max, t_max + 1.0, seed=97
        )
        _assert_identical(traces, _InverseCostPolicy(1.0))


class TestDeclinePerPolicy:
    def test_declining_policy_falls_back_without_poisoning_others(
        self, job_sampler
    ):
        """Batch support is per policy: a decline sends only that policy's
        replay down the ``decide()`` loop; the next batch-capable policy
        still takes the lockstep walk."""
        traces = _mixed_panel(job_sampler)

        before = renewal_walk_stats()
        _assert_identical(traces, _NoBatchCostPolicy(1.0))
        assert _walk_delta(before)["rounds"] == 0  # decide() loop: no walk

        before = renewal_walk_stats()
        _assert_identical(traces, _CostThresholdBatchPolicy(1.0))
        assert _walk_delta(before)["rounds"] > 0  # lockstep walk ran

    def test_mid_walk_decline_aborts_to_scalar(self, job_sampler):
        """A policy that answers the whole panel but declines the walk's
        partial row sets makes the walk abort mid-panel; the wholesale
        ``decide()`` fallback must reproduce the oracle exactly."""

        class _WholePanelOnly(_CostThresholdBatchPolicy):
            name = "whole-panel-only"

            def prepare_traces(self, traces):
                self.n_rows = sum(len(trace) for trace in traces)

            def decide_rows(self, rows, ue_costs):
                if not np.array_equal(rows, np.arange(self.n_rows)):
                    return None
                return super().decide_rows(rows, ue_costs)

        traces = _mixed_panel(job_sampler)
        before = renewal_walk_stats()
        _assert_identical(traces, _WholePanelOnly(1.0))
        stats = _walk_delta(before)
        # The walk started (the whole-panel candidates were answered) and
        # opened a round, whose row request was declined.
        assert stats["rounds"] == 1
