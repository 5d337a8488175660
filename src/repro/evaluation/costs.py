"""Cost–benefit accounting in node–hours (Section 4.3).

Every result of the paper is expressed as the total number of lost node–
hours: the cost of the uncorrected errors that were not (or could not be)
avoided, plus the cost of every mitigation action performed, plus — for the
learned policies — the cost of training and validating the model.

The paper charges each model the training time it measured on its
cluster.  Here :func:`training_charge_node_hours` models that time from
work counts, so the charge is a pure function of the config and the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Tuple

from repro.utils.timeutils import HOUR

#: Per-unit seconds of the training-cost model, fitted on one core of an
#: Intel Xeon (OpenBLAS) from RL training at the ``fast()`` and ``paper()``
#: widths (a step is linear in the Q-network's parameter count) and from
#: forest fits of 15 to 100 trees.  An environment step is the training
#: loop's work outside the gradient update (act, step, replay push).
TRAIN_STEP_SECONDS = 2.23e-4
TRAIN_STEP_SECONDS_PER_PARAMETER = 1.75e-8
ENV_STEP_SECONDS = 3.1e-5
ENV_STEP_SECONDS_PER_PARAMETER = 2.7e-10
FOREST_NODE_SECONDS = 8.0e-5
#: Names the model above; a stored result charged by another is recomputed.
TRAINING_COST_MODEL = "work-counts-1"


def training_charge_node_hours(
    *,
    train_steps: int = 0,
    env_steps: int = 0,
    n_parameters: int = 0,
    forest_nodes: int = 0,
) -> float:
    """Modelled node–hours of ``train_steps`` gradient updates and
    ``env_steps`` environment steps of an RL agent with ``n_parameters``
    Q-network parameters, plus ``forest_nodes`` fitted forest nodes (one
    node trains, so node–hours are hours)."""
    train_step = TRAIN_STEP_SECONDS + TRAIN_STEP_SECONDS_PER_PARAMETER * n_parameters
    env_step = ENV_STEP_SECONDS + ENV_STEP_SECONDS_PER_PARAMETER * n_parameters
    seconds = train_steps * train_step + env_steps * env_step
    return (seconds + forest_nodes * FOREST_NODE_SECONDS) / HOUR


@dataclass(frozen=True)
class CostBreakdown:
    """Lost node–hours, split by cause."""

    #: Node–hours lost to uncorrected errors (Equation 3 at each UE).
    ue_cost: float = 0.0
    #: Node–hours spent performing mitigation actions.
    mitigation_cost: float = 0.0
    #: Node–hours spent training and validating the model.
    training_cost: float = 0.0
    #: Number of uncorrected errors encountered.
    n_ues: int = 0
    #: Number of mitigation actions performed.
    n_mitigations: int = 0

    def __post_init__(self) -> None:
        if self.ue_cost < 0 or self.mitigation_cost < 0 or self.training_cost < 0:
            raise ValueError("costs must be non-negative")
        if self.n_ues < 0 or self.n_mitigations < 0:
            raise ValueError("counts must be non-negative")

    @classmethod
    def series_fields(cls) -> Tuple[str, ...]:
        """Every attribute usable as a cost series (fields + derived totals).

        The single source of truth for ``SweepResult.series`` validation and
        the CLI's ``--which`` choices; stays correct when fields are added.
        """
        return tuple(f.name for f in fields(cls)) + ("total", "overhead_cost")

    @property
    def total(self) -> float:
        """Total lost node–hours (the y-axis of Figures 3, 4, 5 and 7a)."""
        return self.ue_cost + self.mitigation_cost + self.training_cost

    @property
    def overhead_cost(self) -> float:
        """Mitigation plus training cost (everything that is not UE damage)."""
        return self.mitigation_cost + self.training_cost

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return CostBreakdown(
            ue_cost=self.ue_cost + other.ue_cost,
            mitigation_cost=self.mitigation_cost + other.mitigation_cost,
            training_cost=self.training_cost + other.training_cost,
            n_ues=self.n_ues + other.n_ues,
            n_mitigations=self.n_mitigations + other.n_mitigations,
        )

    def __radd__(self, other):
        # Allow sum() over breakdowns (which starts from 0).
        if other == 0:
            return self
        return self.__add__(other)

    def saving_vs(self, reference: "CostBreakdown") -> float:
        """Fractional reduction of total cost relative to ``reference``.

        ``reference`` is typically the Never-mitigate policy; the paper
        reports e.g. a 54 % reduction for the RL agent.
        """
        if reference.total <= 0:
            return 0.0
        return 1.0 - self.total / reference.total

    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        return simple_to_dict(self, "cost_breakdown")

    @classmethod
    def from_dict(cls, data: dict) -> "CostBreakdown":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict

        return simple_from_dict(cls, data, "cost_breakdown")
