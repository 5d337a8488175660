"""Myopic-RF: the expected-cost extension of SC20-RF (Section 4.2).

Myopic-RF adapts to the current potential UE cost without reinforcement
learning: it triggers a mitigation whenever the expected cost of doing
nothing — the predicted UE probability times the cost the UE would have —
exceeds the cost of the mitigation.  The paper shows that this seemingly
reasonable policy underperforms because the random-forest output is not a
calibrated probability.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.sc20 import SC20RandomForestPolicy
from repro.core.policies import DecisionContext, MitigationPolicy
from repro.utils.validation import check_non_negative


class MyopicRFPolicy(MitigationPolicy):
    """Mitigate when ``P(UE) × UE_cost > mitigation_cost``."""

    #: The decision depends on the potential UE cost, which mitigations of
    #: restartable jobs reset — the runner resolves the feedback loop.
    cost_dependent = True

    def __init__(
        self,
        sc20_policy: SC20RandomForestPolicy,
        mitigation_cost_node_hours: float,
        name: str = "Myopic-RF",
    ) -> None:
        check_non_negative("mitigation_cost_node_hours", mitigation_cost_node_hours)
        self.sc20_policy = sc20_policy
        self.mitigation_cost = float(mitigation_cost_node_hours)
        self.name = name

    def reset(self) -> None:
        self.sc20_policy.reset()

    def prepare_trace(self, features) -> None:
        self.sc20_policy.prepare_trace(features)

    def prepare_traces(self, traces) -> None:
        self.sc20_policy.prepare_traces(traces)

    def decide(self, context: DecisionContext) -> bool:
        probability = self.sc20_policy.probability_for(context)
        expected_ue_cost = probability * context.ue_cost
        return expected_ue_cost > self.mitigation_cost

    def decide_rows(
        self, rows: np.ndarray, ue_costs: np.ndarray
    ) -> Optional[np.ndarray]:
        """Element-wise expected-cost rule over the panel's forest outputs.

        The same multiply/compare, on the same probabilities (see
        :meth:`SC20RandomForestPolicy.prepare_traces`), as sequential
        :meth:`decide` calls, so the decisions match bit for bit.
        """
        probabilities = self.sc20_policy.panel_probabilities
        if probabilities is None:
            return None
        expected = probabilities[rows] * np.asarray(ue_costs, dtype=float)
        return expected > self.mitigation_cost

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Expected-cost rule over one forest gather for a serving tick.

        The same multiply/compare, on the same per-row probabilities, as the
        scalar :meth:`decide`, so serving decisions match offline replay bit
        for bit.
        """
        probabilities = self.sc20_policy.predict_probabilities(features)
        expected = probabilities * np.asarray(ue_costs, dtype=float)
        return expected > self.mitigation_cost

    @property
    def training_cost_node_hours(self) -> float:
        """Shares the forest (and its training cost) with the SC20 policy."""
        return self.sc20_policy.training_cost_node_hours
