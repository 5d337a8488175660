"""Output checks whose failures feed the benchmark's ``failed`` count.

Kept free of ``repro`` imports so the harness tests can exercise them on
hand-built inputs.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

#: Costs are node-hours; three decimals is far below any behavioural change
#: yet immune to last-ulp noise in accumulation order (the golden tests'
#: rounding).
ROUND_DIGITS = 3


def experiment_fingerprint(result) -> Dict[str, Dict[str, float]]:
    """Per-approach rounded costs and confusion counts of an ``ExperimentResult``."""
    confusions = result.confusions()
    recorded: Dict[str, Dict[str, float]] = {}
    for name, costs in result.total_costs().items():
        confusion = confusions[name]
        recorded[name] = {
            "total": round(costs.total, ROUND_DIGITS),
            "ue_cost": round(costs.ue_cost, ROUND_DIGITS),
            "mitigation_cost": round(costs.mitigation_cost, ROUND_DIGITS),
            "training_cost": round(costs.training_cost, ROUND_DIGITS),
            "true_positives": int(confusion.true_positives),
            "false_negatives": int(confusion.false_negatives),
            "false_positives": int(confusion.false_positives),
            "true_negatives": int(confusion.true_negatives),
        }
    return recorded


def fingerprint_diff(
    recorded: Mapping[str, Mapping[str, float]], actual: Mapping[str, Mapping[str, float]]
) -> List[str]:
    """Field-by-field differences between two fingerprints (empty if equal)."""
    lines: List[str] = []
    for name in sorted(set(recorded) ^ set(actual)):
        where = "recorded only" if name in recorded else "produced only"
        lines.append(f"approach {name!r}: {where}")
    for name in sorted(set(recorded) & set(actual)):
        for field in sorted(set(recorded[name]) | set(actual[name])):
            want, got = recorded[name].get(field), actual[name].get(field)
            if want != got:
                lines.append(f"{name}.{field}: recorded {want!r} != actual {got!r}")
    return lines


def mask_mismatches(
    served: Mapping[int, np.ndarray], offline: Mapping[int, np.ndarray]
) -> int:
    """Number of decisions on which a served run disagrees with the offline replay.

    A node present on one side only counts all of its decisions.
    """
    wrong = 0
    for node in set(served) | set(offline):
        a, b = served.get(node), offline.get(node)
        if a is None or b is None or a.shape != b.shape:
            wrong += max(len(a) if a is not None else 0, len(b) if b is not None else 0)
        else:
            wrong += int(np.count_nonzero(a != b))
    return wrong


def served_failures(report, offline_masks, ue_cost: float, mitigation_cost: float) -> int:
    """Failed decisions of one served run against the offline reference.

    Every mismatching decision fails; a cost total that differs from the
    offline ``evaluate_policy`` fails every decision of the run, because any
    of them may carry the error.
    """
    budget = max(report.n_decision_points, 1)
    if report.ue_cost_node_hours != ue_cost or report.mitigation_cost_node_hours != mitigation_cost:
        return budget
    return min(mask_mismatches(report.masks, offline_masks), budget)
