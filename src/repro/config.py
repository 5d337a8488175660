"""Scenario configuration presets.

A :class:`ScenarioConfig` bundles everything needed to regenerate a full
experiment: the synthetic cluster size, the telemetry fault-model parameters,
the workload parameters, and the evaluation parameters (mitigation cost,
cross-validation layout, prediction window).

Three presets are provided:

``ScenarioConfig.small()``
    A laptop-scale scenario used by the unit/integration tests.  Tens of
    nodes, a few months of simulated production, a handful of uncorrected
    errors.  Runs in seconds.

``ScenarioConfig.benchmark()``
    The scenario used by the benchmark harness under ``benchmarks/``.  Large
    enough that every policy ordering reported in the paper is observable,
    small enough that the full suite completes in minutes.

``ScenarioConfig.paper()``
    The full MareNostrum-3 scale described in Section 2 of the paper: 3056
    nodes, ~25k DIMMs, two years of production, targeting ~4.5 M corrected
    errors and a few hundred uncorrected errors.  Provided for completeness;
    running it takes hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.telemetry.fault_model import FaultModelConfig
from repro.telemetry.topology import ClusterTopology
from repro.utils.timeutils import DAY, HOUR, MINUTE
from repro.utils.validation import (
    boolean, check_fields, fraction, non_negative, positive, text
)
from repro.workload.generator import WorkloadConfig


@dataclass(frozen=True)
class EvaluationConfig:
    """Parameters of the evaluation methodology (Section 4)."""

    #: Cost of one mitigation action, in node–minutes (paper uses 2, 5, 10).
    mitigation_cost_node_minutes: float = non_negative(2.0)
    #: Whether the job can restart from the mitigation point (checkpointing).
    restartable: bool = boolean(True)
    #: Number of equal parts of the error log (Figure 2).
    cv_parts: int = positive(6, int)
    #: Fraction of the pre-test data used for training (rest is validation).
    cv_train_fraction: float = fraction(0.75)
    #: Length of the bootstrap train+validation window of the first split.
    cv_bootstrap_seconds: float = positive(14 * DAY)
    #: Prediction window used only by the classical ML metrics (Section 4.4).
    prediction_window_seconds: float = positive(1 * DAY)
    #: Minimum wallclock time between state transitions (Section 3.2.3).
    merge_window_seconds: float = positive(1 * MINUTE)
    #: Week-long quarantine applied after each UE (Section 2.1.3).
    ue_burst_window_seconds: float = positive(7 * DAY)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def mitigation_cost_node_hours(self) -> float:
        """Mitigation cost converted to node–hours."""
        return self.mitigation_cost_node_minutes / 60.0

    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        return simple_to_dict(self, "evaluation_config")

    @classmethod
    def from_dict(cls, data: dict) -> "EvaluationConfig":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict

        return simple_from_dict(cls, data, "evaluation_config")


#: The :class:`ScenarioConfig` fields holding a nested config, and its class.
_NESTED = {
    "topology": ClusterTopology,
    "fault_model": FaultModelConfig,
    "workload": WorkloadConfig,
    "evaluation": EvaluationConfig,
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a reproducible experiment scenario."""

    name: str = text()
    seed: int = non_negative(kind=int)
    topology: ClusterTopology
    fault_model: FaultModelConfig
    workload: WorkloadConfig
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)
    #: Duration of the simulated production period, seconds.
    duration_seconds: float = positive(180 * DAY)
    #: Restrict the telemetry to one DRAM manufacturer (Section 5.3 / the
    #: Figure 5 per-manufacturer subsystems); ``None`` keeps the whole fleet.
    manufacturer: Optional[int] = non_negative(None, int)
    #: Job-size scaling factor applied to the generated workload (Section
    #: 5.6 / Figure 7); 1.0 reproduces the base system.
    job_scaling_factor: float = positive(1.0)

    def __post_init__(self) -> None:
        check_fields(self)
        n_manufacturers = self.topology.n_manufacturers
        if self.manufacturer is not None and self.manufacturer >= n_manufacturers:
            raise ValueError(
                f"manufacturer must be < {n_manufacturers} (the topology's "
                f"manufacturer count), got {self.manufacturer!r}"
            )
        # The generator cycles or truncates the weights to the topology's
        # manufacturers and divides by their mean.
        for name in ("manufacturer_ce_weights", "manufacturer_ue_weights"):
            weights = getattr(self.fault_model, name)
            if sum(weights[i % len(weights)] for i in range(n_manufacturers)) <= 0:
                raise ValueError(
                    f"{name} must weigh one of the topology's "
                    f"{n_manufacturers} manufacturers above 0, got {weights!r}"
                )

    # ------------------------------------------------------------------ #
    # Presets
    # ------------------------------------------------------------------ #
    @staticmethod
    def small(seed: int = 7) -> "ScenarioConfig":
        """Laptop-scale preset used by the test-suite."""
        topology = ClusterTopology(
            n_nodes=48,
            dimms_per_node=4,
            manufacturer_shares=(0.26, 0.21, 0.53),
        )
        fault = FaultModelConfig.scaled_for(
            n_dimms=topology.n_dimms, duration_seconds=120 * DAY, target_ues=36
        )
        workload = WorkloadConfig(
            max_job_nodes=16,
            mean_job_duration_seconds=6 * HOUR,
            duration_sigma=0.9,
        )
        return ScenarioConfig(
            name="small",
            seed=seed,
            topology=topology,
            fault_model=fault,
            workload=workload,
            duration_seconds=120 * DAY,
        )

    @staticmethod
    def benchmark(seed: int = 2024) -> "ScenarioConfig":
        """Preset used by the benchmark harness (minutes, not hours)."""
        topology = ClusterTopology(
            n_nodes=96,
            dimms_per_node=6,
            manufacturer_shares=(0.26, 0.21, 0.53),
        )
        fault = FaultModelConfig.scaled_for(
            n_dimms=topology.n_dimms, duration_seconds=240 * DAY, target_ues=84
        )
        workload = WorkloadConfig(
            max_job_nodes=32,
            mean_job_duration_seconds=8 * HOUR,
            duration_sigma=1.0,
        )
        return ScenarioConfig(
            name="benchmark",
            seed=seed,
            topology=topology,
            fault_model=fault,
            workload=workload,
            duration_seconds=240 * DAY,
        )

    @staticmethod
    def paper(seed: int = 42) -> "ScenarioConfig":
        """Full MareNostrum-3 scale preset (Section 2.1)."""
        topology = ClusterTopology(
            n_nodes=3056,
            dimms_per_node=8,
            manufacturer_shares=(6694 / 25320, 5207 / 25320, 13419 / 25320),
        )
        fault = FaultModelConfig.scaled_for(
            n_dimms=topology.n_dimms,
            duration_seconds=2 * 365 * DAY,
            target_ues=67,
            target_ces=4_500_000,
        )
        workload = WorkloadConfig(
            max_job_nodes=2048,
            mean_job_duration_seconds=12 * HOUR,
            duration_sigma=1.3,
        )
        return ScenarioConfig(
            name="paper",
            seed=seed,
            topology=topology,
            fault_model=fault,
            workload=workload,
            duration_seconds=2 * 365 * DAY,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        payload = simple_to_dict(self, "scenario_config")
        for name in _NESTED:
            payload[name] = getattr(self, name).to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict, untag

        payload = untag(data, "scenario_config")
        nested = {name: kind.from_dict(payload[name]) for name, kind in _NESTED.items()}
        return simple_from_dict(cls, {**data, **nested}, "scenario_config")

    # ------------------------------------------------------------------ #
    # Derived modifications
    # ------------------------------------------------------------------ #
    def with_mitigation_cost(self, node_minutes: float) -> "ScenarioConfig":
        """Return a copy with a different mitigation cost (Figure 3 sweep)."""
        return replace(
            self,
            evaluation=replace(
                self.evaluation, mitigation_cost_node_minutes=node_minutes
            ),
        )

    def with_restartable(self, restartable: bool) -> "ScenarioConfig":
        """Return a copy with a different job-restart assumption."""
        return replace(
            self, evaluation=replace(self.evaluation, restartable=restartable)
        )

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """Return a copy with a different root seed."""
        return replace(self, seed=seed)

    def with_duration(self, duration_seconds: float) -> "ScenarioConfig":
        """Return a copy covering a different production period."""
        return replace(self, duration_seconds=duration_seconds)

    def with_manufacturer(self, manufacturer: Optional[int]) -> "ScenarioConfig":
        """Return a copy restricted to one DRAM manufacturer (Figure 5 sweep).

        ``None`` lifts the restriction and evaluates the whole fleet.
        """
        return replace(self, manufacturer=manufacturer)

    def with_job_scale(self, factor: float) -> "ScenarioConfig":
        """Return a copy with the workload scaled by ``factor`` (Figure 7 sweep)."""
        return replace(self, job_scaling_factor=factor)

    def with_topology(self, topology: ClusterTopology) -> "ScenarioConfig":
        """Return a copy on a different cluster topology (fleet segments)."""
        return replace(self, topology=topology)
