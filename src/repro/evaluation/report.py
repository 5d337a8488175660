"""Plain-text report formatting for the regenerated figures and tables.

The benchmark harness prints the same rows/series the paper reports; these
helpers render cost breakdowns (Figures 3, 4, 5, 7) and the classical ML
metrics table (Table 2) as aligned text so that the benchmark output can be
compared side by side with the paper.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.evaluation.costs import CostBreakdown
from repro.evaluation.metrics import ConfusionCounts


def _format_number(value: float) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    if value >= 10:
        return f"{value:.1f}"
    return f"{value:.2f}"


def format_cost_table(
    costs: Mapping[str, CostBreakdown],
    title: str = "Total cost (node-hours)",
    reference: Optional[str] = "Never-mitigate",
) -> str:
    """Render one group of per-approach cost breakdowns (a Figure 3/5 bar group)."""
    lines = [title]
    header = f"{'approach':<18} {'UE cost':>12} {'mitigation':>12} {'training':>10} {'total':>12} {'saving':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    ref = costs.get(reference) if reference else None
    for name, breakdown in costs.items():
        saving = ""
        if ref is not None and ref.total > 0:
            saving = f"{100 * breakdown.saving_vs(ref):+.0f}%"
        lines.append(
            f"{name:<18} {_format_number(breakdown.ue_cost):>12} "
            f"{_format_number(breakdown.mitigation_cost):>12} "
            f"{_format_number(breakdown.training_cost):>10} "
            f"{_format_number(breakdown.total):>12} {saving:>8}"
        )
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    labels: Sequence[str],
    title: str = "",
    value_format: str = "{:>12,.0f}",
) -> str:
    """Render named series over common labels (Figure 4 / Figure 7 style)."""
    lines = []
    if title:
        lines.append(title)
    label_width = max(18, max((len(str(l)) for l in labels), default=18))
    header = f"{'approach':<18} " + " ".join(f"{str(l):>12}" for l in labels)
    lines.append(header)
    lines.append("-" * len(header))
    for name, values in series.items():
        if len(values) != len(labels):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(labels)} labels"
            )
        row = f"{name:<18} " + " ".join(value_format.format(v) for v in values)
        lines.append(row)
    return "\n".join(lines)


def format_sweep_table(
    totals: Mapping[str, Mapping[str, CostBreakdown]],
    which: str = "total",
    title: str = "Sweep — total cost (node-hours)",
) -> str:
    """Render a sweep's points × approaches cost matrix.

    ``totals`` maps point label -> approach -> cost breakdown (the shape of
    :meth:`repro.evaluation.sweep.SweepResult.totals`); ``which`` selects the
    :class:`CostBreakdown` attribute shown (``total``, ``ue_cost``,
    ``mitigation_cost``, ``training_cost``, ...).  Approaches are rows and
    sweep points are columns, matching the grouped bars of Figures 3/5/7.
    """
    labels = list(totals)
    approaches: list = []
    for label in labels:
        for name in totals[label]:
            if name not in approaches:
                approaches.append(name)
    lines = []
    if title:
        lines.append(title)
    column_width = max(12, max((len(label) for label in labels), default=12))
    header = f"{'approach':<18} " + " ".join(
        f"{label:>{column_width}}" for label in labels
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in approaches:
        cells = []
        for label in labels:
            breakdown = totals[label].get(name)
            if breakdown is None:
                cells.append(f"{'—':>{column_width}}")
            else:
                value = getattr(breakdown, which)
                cells.append(f"{_format_number(value):>{column_width}}")
        lines.append(f"{name:<18} " + " ".join(cells))
    return "\n".join(lines)


def format_metrics_table(
    metrics: Mapping[str, ConfusionCounts],
    title: str = "Classical machine learning metrics (Table 2)",
) -> str:
    """Render the Table 2 columns: TP / FN / FP / TN, mitigations, recall, precision."""
    lines = [title]
    header = (
        f"{'approach':<28} {'TPs':>6} {'FNs':>6} {'FPs':>10} {'TNs':>10} "
        f"{'mitigations':>12} {'recall':>8} {'precision':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, counts in metrics.items():
        precision = counts.precision
        precision_text = "n/a" if precision is None else f"{100 * precision:.2f}%"
        lines.append(
            f"{name:<28} {counts.true_positives:>6} {counts.false_negatives:>6} "
            f"{counts.false_positives:>10} {counts.true_negatives:>10} "
            f"{counts.n_mitigations:>12} {100 * counts.recall:>7.0f}% {precision_text:>10}"
        )
    return "\n".join(lines)


def format_behavior_grid(grid, title: str = "RL mitigation fraction (Figure 6)") -> str:
    """Render a :class:`~repro.evaluation.behavior.BehaviorGrid` as text."""
    lines = [title]
    cost_edges = grid.ue_cost_edges
    header = "P(UE) \\ cost " + " ".join(
        f"{edge:>8.0f}" for edge in cost_edges[:-1]
    )
    lines.append(header)
    for y in range(grid.mitigation_fraction.shape[0] - 1, -1, -1):
        lo = grid.probability_edges[y]
        hi = grid.probability_edges[y + 1]
        cells = []
        for x in range(grid.mitigation_fraction.shape[1]):
            value = grid.mitigation_fraction[y, x]
            cells.append("     ..." if value != value else f"{value:>8.2f}")
        lines.append(f"{lo:.1f}-{hi:.1f}      " + " ".join(cells))
    return "\n".join(lines)


def format_profile(profile: Mapping, title: str = "Profile") -> str:
    """Render a run's ``extras["profile"]`` (see :func:`run_sweep`): its
    spans (the pipeline stages), the seconds of each task body per worker
    pid, heaviest body first, and a line of counters."""
    header = f"{'span / task body':<28} {'pid':>8} {'calls':>7} {'seconds':>10}"
    rows = [(name, "-", timing) for name, timing in profile["spans"].items()]
    for name, per_pid in sorted(
        profile["tasks"].items(), key=lambda item: -sum(s for _, s in item[1].values())
    ):
        rows.extend((name, pid, timing) for pid, timing in sorted(per_pid.items()))
    lines = [title, header, "-" * len(header)] + [
        f"{name:<28} {pid:>8} {calls:>7} {seconds:>10.3f}"
        for name, pid, (calls, seconds) in rows
    ]
    counts = sorted(profile["counts"].items())
    lines.append("counters: " + ", ".join(f"{name}={n}" for name, n in counts))
    return "\n".join(lines)
