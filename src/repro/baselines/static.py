"""Static baseline policies: Never-mitigate, Always-mitigate, Oracle.

These are the reference points of the cost–benefit analysis (Section 4.2):
Never-mitigate pays the full UE cost and no mitigation cost; Always-mitigate
triggers a mitigation at every error-related event, paying the minimum UE
cost achievable by event-triggered policies and the maximum mitigation cost;
the Oracle mitigates only on the last event before each UE, which is the
optimal event-triggered strategy but requires knowledge of the future.

Every policy here also answers the batched ``decide_rows`` protocol.  None
of them reads the potential UE cost, so the whole replay panel resolves in
one call (see :func:`repro.evaluation.runner.evaluate_policy`): the Oracle
indexes the panel's stacked look-ahead flags, and the periodic baseline
indexes its clock, replayed once per trace in ``prepare_traces``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policies import DecisionContext, MitigationPolicy
from repro.utils.validation import check_positive


class NeverMitigatePolicy(MitigationPolicy):
    """Do nothing, ever.  Maximum UE cost, zero mitigation cost."""

    name = "Never-mitigate"

    def decide(self, context: DecisionContext) -> bool:
        return False

    def decide_rows(self, rows: np.ndarray, ue_costs: np.ndarray) -> np.ndarray:
        return np.zeros(len(rows), dtype=bool)

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return np.zeros(len(features), dtype=bool)


class AlwaysMitigatePolicy(MitigationPolicy):
    """Mitigate on every event in the error log.

    Implicitly a predictor: any event is treated as an indicator of an
    upcoming UE (Section 4.2).
    """

    name = "Always-mitigate"

    def decide(self, context: DecisionContext) -> bool:
        return True

    def decide_rows(self, rows: np.ndarray, ue_costs: np.ndarray) -> np.ndarray:
        return np.ones(len(rows), dtype=bool)

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        return np.ones(len(features), dtype=bool)


class OraclePolicy(MitigationPolicy):
    """Mitigate exactly on the last event before each UE.

    Relies on the ``is_last_event_before_ue`` flag that the evaluation
    harness computes from the *future* of the log; it is not a realisable
    policy and is used only to quantify the room for improvement.
    """

    name = "Oracle"

    def __init__(self) -> None:
        #: The prepared panel's stacked ``is_last_before_ue`` flags.
        self._panel_flags: Optional[np.ndarray] = None

    def decide(self, context: DecisionContext) -> bool:
        return bool(context.is_last_event_before_ue)

    def prepare_traces(self, traces) -> None:
        self._panel_flags = None
        if traces:
            self._panel_flags = np.concatenate(
                [np.asarray(trace.is_last_before_ue, dtype=bool) for trace in traces]
            )

    def decide_rows(
        self, rows: np.ndarray, ue_costs: np.ndarray
    ) -> Optional[np.ndarray]:
        if self._panel_flags is None:
            return None
        return self._panel_flags[rows]

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError(
            "OraclePolicy reads is_last_event_before_ue, which encodes the "
            "future of the log; it cannot be served online"
        )


class PeriodicMitigatePolicy(MitigationPolicy):
    """Mitigate whenever at least ``period_hours`` elapsed since the last one.

    Not part of the paper's comparison; included as the classical
    fixed-interval checkpointing strategy that adaptive methods are meant to
    improve upon.  State is per evaluation trace (reset between nodes).
    """

    def __init__(self, period_hours: float = 24.0) -> None:
        check_positive("period_hours", period_hours)
        self.period_seconds = float(period_hours) * 3600.0
        self.name = f"Periodic-{period_hours:g}h"
        self._last_mitigation: float | None = None
        #: Decisions of the prepared panel's rows (see :meth:`prepare_traces`).
        self._panel_mask: Optional[np.ndarray] = None

    def reset(self) -> None:
        self._last_mitigation = None

    def decide(self, context: DecisionContext) -> bool:
        if (
            self._last_mitigation is None
            or context.time - self._last_mitigation >= self.period_seconds
        ):
            self._last_mitigation = context.time
            return True
        return False

    def prepare_traces(self, traces) -> None:
        """Replay the mitigation clock of every trace of the panel.

        The clock never reads the potential UE cost, so the panel's
        decisions are fixed here, whatever rows :meth:`decide_rows` is
        later asked for.  Each trace starts with a fresh clock, as the
        scalar path's :meth:`reset` gives it.
        """
        self._panel_mask = None
        if traces:
            self._panel_mask = np.concatenate(
                [self._jump_scan(trace) for trace in traces]
            )

    def _jump_scan(self, trace) -> np.ndarray:
        """Sequential decisions of one trace, from a fresh clock.

        Reproduces the sequential ``t - last >= period`` comparisons exactly:
        the search advances in chunks but evaluates the same element-wise
        subtraction the scalar path uses.
        """
        decisions = np.zeros(len(trace), dtype=bool)
        decision_points = np.flatnonzero(~np.asarray(trace.is_ue, dtype=bool))
        times = trace.times[decision_points]
        last = None
        i = 0
        chunk = 512
        while i < len(times):
            if last is None:
                j = i
            else:
                j = -1
                for block_start in range(i, len(times), chunk):
                    block = (
                        times[block_start : block_start + chunk] - last
                        >= self.period_seconds
                    )
                    hits = np.flatnonzero(block)
                    if hits.size:
                        j = block_start + int(hits[0])
                        break
                if j < 0:
                    break
            decisions[decision_points[j]] = True
            last = float(times[j])
            i = j + 1
        return decisions

    def decide_rows(
        self, rows: np.ndarray, ue_costs: np.ndarray
    ) -> Optional[np.ndarray]:
        if self._panel_mask is None:
            return None
        return self._panel_mask[rows]

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        raise NotImplementedError(
            "PeriodicMitigatePolicy keeps one mitigation clock per replayed "
            "trace; a serving tick interleaves many nodes, which would need "
            "one clock per node — wrap one policy instance per node instead"
        )
