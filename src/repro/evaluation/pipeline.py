"""Staged experiment pipeline: pure stages composed by the sweep engine.

:func:`repro.evaluation.sweep.run_sweep` (of which ``run_experiment`` is the
one-point view) runs three stages around one executor graph:

``prepare_data``
    Telemetry generation (or ingestion), retirement-bias / UE-burst
    reduction, workload generation and per-node Table 1 feature tracks.
``make_splits``
    The time-series nested cross-validation layout (Figure 2).
:func:`build_split_tasks` / :func:`execute_split_tasks`
    The per-split executor tasks (:mod:`repro.evaluation.executor`):
    :func:`run_forest_fit` fits a split's SC20 forest, :func:`run_rl_trial`
    trains one RL hyperparameter candidate, :func:`run_rl_search` picks the
    first search round's winner for the narrowed second round,
    :func:`run_rl_reduce` selects a split's best candidate and evaluates
    the "rl" group, and
    :func:`run_split_group` evaluates any other approach group on the
    split's test traces.
``aggregate``
    Folds per-split evaluations into the :class:`ExperimentResult` behind
    Figures 3, 4, 5, 7 and Table 2.

These tasks are the only place a split's models are trained.  An approach's
group names the model its builder receives through the read-only
:class:`SplitContext`: "rf" builders get the split's forest, "rl" builders
the selected agent, every other builder ``None`` (as for a split without
training data).  Only the warm-started RL trial 0 rides the cross-split
chain, while the remaining trials fan out across idle workers; a second,
narrowed search round waits only for the first round's winner.  All
randomness is drawn from keyed :class:`~repro.utils.rng.RngFactory` streams
(per-trial settings are pre-drawn from one sequential stream per split and
search round), which makes every task self-seeding: serial and parallel
schedules produce bitwise-identical results.  The training cost charged to
the learned policies is modelled from work counts
(:func:`~repro.evaluation.costs.training_charge_node_hours`), so it is
identical on every schedule too.

Two content-keyed caches remove redundant work across experiments:
:class:`PreparedDataCache` shares one :class:`PreparedData` product between
scenarios whose data-preparation inputs match (the sweep engine of
:mod:`repro.evaluation.sweep` relies on it), and a process-wide trace cache
keyed by ``(data key, split, seed)`` lets every approach group of a split
replay the same immutable test traces instead of rebuilding them per task.
"""

from __future__ import annotations

import hashlib
import re
import threading
import warnings
import zipfile
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.baselines.dataset import build_prediction_dataset
from repro.baselines.random_forest import RandomForestClassifier
from repro.baselines.sc20 import SC20RandomForestPolicy, train_sc20_forest
from repro.config import ScenarioConfig
from repro.core.dqn import DDDQNAgent, DQNConfig
from repro.core.environment import MitigationEnv
from repro.core.features import NodeFeatureTrack, StateNormalizer, build_feature_tracks
from repro.core.hyperparams import HyperparameterSpace
from repro.core.policies import MitigationPolicy, RLPolicy
from repro.core.trainer import train_agent
from repro.evaluation.costs import CostBreakdown, training_charge_node_hours
from repro.evaluation.cross_validation import TimeSeriesNestedCV, TimeSeriesSplit
from repro.evaluation.executor import EXECUTOR_KINDS, ExecutorStats, Task, execute_tasks
from repro.evaluation.metrics import ConfusionCounts
from repro.evaluation.registry import (
    approach_groups,
    approach_order,
    enabled_specs,
    ensure_sc20_variants,
)
from repro.evaluation.runner import (
    EvaluationTrace,
    PolicyEvaluation,
    build_traces,
    evaluate_policy,
)
from repro.serialization import content_key
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.generator import TelemetryGenerator
from repro.telemetry.reduction import ReductionReport, prepare_log
from repro.utils.rng import RngFactory
from repro.utils.validation import (
    boolean, check_fields, non_negative, number, one_of, positive, sequence_of
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.job import JobLog
from repro.workload.sampling import JobSequenceSampler
from repro.workload.scaling import scale_job_log

__all__ = [
    "ApproachResult",
    "ExperimentConfig",
    "ExperimentResult",
    "GroupOutcome",
    "PreparedData",
    "PreparedDataCache",
    "RLTrialResult",
    "SC20SplitArtifacts",
    "SplitContext",
    "aggregate",
    "build_split_tasks",
    "clear_trace_cache",
    "default_prepared_cache",
    "execute_split_tasks",
    "fit_split_forest",
    "make_splits",
    "prepare_data",
    "prepared_data_key",
    "run_rl_reduce",
    "run_rl_search",
    "run_rl_trial",
    "run_split_group",
    "task_seconds_by_body",
    "trace_cache_stats",
]


# --------------------------------------------------------------------- #
# Configuration
# --------------------------------------------------------------------- #
#: Removed ``ExperimentConfig`` fields that payloads written by older
#: versions still carry; ``from_dict`` drops them.
_RETIRED_CONFIG_FIELDS = ("rl_trial_tasks", "compiled", "profile")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs controlling how heavy the experiment is to run.

    The defaults are a scaled-down schedule suitable for the benchmark
    harness; :meth:`paper` returns the full schedule described in
    Sections 3.3 and 4.1 (20,000 episodes per agent, 60 + narrowed random
    search), which takes hours.
    """

    #: Episodes per hyperparameter trial of the RL agent.
    rl_episodes: int = positive(400, int)
    #: Number of random-search trials in the first round (the first trial
    #: always uses the base configuration unchanged).  0 runs one trial,
    #: the base configuration alone, as 1 does: a split always needs an
    #: agent (see ``_rl_n_first_round``).
    rl_hyperparam_trials: int = non_negative(2, int)
    #: Number of trials in the second round, narrowed around the first
    #: round's winner.
    rl_hyperparam_refine: int = non_negative(0, int)
    #: Hidden layout of the Q-network (paper: 256, 256, 128, 64).
    rl_hidden_sizes: Sequence[int] = sequence_of((64, 48), positive(kind=int))
    #: Base DQN configuration; hyperparameter search overrides some fields.
    rl_base_config: DQNConfig = field(
        default_factory=lambda: DQNConfig(
            epsilon_decay_steps=4000, warmup_transitions=128, buffer_capacity=20000
        )
    )
    #: Reuse the best agent of the previous split as a warm-started candidate.
    #: Warm starting chains the RL tasks of consecutive splits, limiting how
    #: much of the RL work the parallel executor can overlap.
    rl_warm_start: bool = boolean(True)
    #: Random forest size of the SC20 baseline.
    rf_n_estimators: int = positive(25, int)
    rf_max_depth: int = positive(10, int)
    #: Number of candidate thresholds evaluated to find the optimal one.
    threshold_grid_size: int = positive(21, int)
    #: Threshold perturbations of the realistic SC20 variants.
    sc20_threshold_offsets: Tuple[float, ...] = sequence_of(
        (0.02, 0.05), number(), empty=True
    )
    #: Approach toggles (consumed by the registry's ``enabled`` predicates).
    include_static: bool = boolean(True)
    include_oracle: bool = boolean(True)
    include_rf: bool = boolean(True)
    include_myopic: bool = boolean(True)
    include_rl: bool = boolean(True)
    #: Evaluate the Fleet-mix composite policy, which routes every decision
    #: to a per-segment sub-policy according to the topology's fleet
    #: segments.  Off by default: it only makes sense for heterogeneous
    #: fleets, and keeping it out of the default approach set leaves all
    #: existing results untouched.
    include_fleet_mix: bool = boolean(False)
    #: Job-size scaling factor (Section 5.6); 1.0 reproduces the base system.
    job_scaling_factor: float = positive(1.0)
    #: Restrict the error log to one DRAM manufacturer (Section 5.3).
    manufacturer: Optional[int] = non_negative(None, int)
    #: Maximum concurrent (split × approach-group) tasks; 1 runs serially.
    n_workers: int = non_negative(1, int)
    #: Executor backend: "process", "thread" or "serial".
    executor_kind: str = one_of("process", EXECUTOR_KINDS)
    #: Charge the modelled training cost to the learned policies (Section
    #: 4.3; :func:`~repro.evaluation.costs.training_charge_node_hours`).
    #: A forest fit shared by several sweep points or suite blocks (see
    #: :func:`build_split_tasks`) charges its cost to each.
    charge_training_time: bool = boolean(True)

    def __post_init__(self) -> None:
        check_fields(self)

    @staticmethod
    def fast() -> "ExperimentConfig":
        """Cheapest configuration that still trains every approach."""
        return ExperimentConfig(
            rl_episodes=120,
            rl_hyperparam_trials=1,
            rl_hidden_sizes=(48, 32),
            rf_n_estimators=15,
            threshold_grid_size=11,
        )

    @staticmethod
    def paper() -> "ExperimentConfig":
        """The full schedule of the paper (hours of compute)."""
        return ExperimentConfig(
            rl_episodes=20_000,
            rl_hyperparam_trials=60,
            rl_hyperparam_refine=20,
            rl_hidden_sizes=(256, 256, 128, 64),
            rf_n_estimators=100,
            threshold_grid_size=101,
        )

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy of the config with some fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        payload = simple_to_dict(self, "experiment_config")
        payload["rl_base_config"] = self.rl_base_config.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import untag

        payload = dict(untag(data, "experiment_config"))
        for name in _RETIRED_CONFIG_FIELDS:
            payload.pop(name, None)
        payload["rl_base_config"] = DQNConfig.from_dict(payload["rl_base_config"])
        return cls(**payload)


# --------------------------------------------------------------------- #
# Result containers
# --------------------------------------------------------------------- #
@dataclass
class ApproachResult:
    """Accumulated results of one approach across all splits."""

    name: str
    per_split: List[PolicyEvaluation] = field(default_factory=list)

    @property
    def total_costs(self) -> CostBreakdown:
        if not self.per_split:
            return CostBreakdown()
        return sum(evaluation.costs for evaluation in self.per_split)

    @property
    def total_confusion(self) -> ConfusionCounts:
        if not self.per_split:
            return ConfusionCounts()
        return sum(evaluation.confusion for evaluation in self.per_split)

    @property
    def per_split_total_cost(self) -> List[float]:
        return [evaluation.costs.total for evaluation in self.per_split]

    @property
    def per_split_ue_cost(self) -> List[float]:
        return [evaluation.costs.ue_cost for evaluation in self.per_split]

    @property
    def per_split_mitigation_cost(self) -> List[float]:
        return [evaluation.costs.overhead_cost for evaluation in self.per_split]

    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import tag

        return tag(
            "approach_result",
            {
                "name": self.name,
                "per_split": [evaluation.to_dict() for evaluation in self.per_split],
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "ApproachResult":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import untag

        payload = untag(data, "approach_result")
        return cls(
            name=payload["name"],
            per_split=[
                PolicyEvaluation.from_dict(item) for item in payload["per_split"]
            ],
        )


@dataclass
class ExperimentResult:
    """Everything produced by :func:`repro.evaluation.experiment.run_experiment`."""

    scenario_name: str
    mitigation_cost_node_hours: float
    approaches: Dict[str, ApproachResult]
    splits: List[TimeSeriesSplit]
    reduction_report: ReductionReport
    n_test_events: int
    wallclock_seconds: float
    #: Trained artifacts of the final split (inputs to Figure 6).
    final_rl_policy: Optional[RLPolicy] = None
    final_sc20_policy: Optional[SC20RandomForestPolicy] = None
    final_test_features: Optional[np.ndarray] = None
    #: Task-level timing of the run's executor graph (per-task seconds and
    #: the measured critical path).  A run diagnostic, not a result: like
    #: the Figure 6 artifacts it is not serialized and comes back ``None``
    #: from :meth:`from_dict` / a store load.
    executor_stats: Optional["ExecutorStats"] = None
    #: Run diagnostics keyed by name (e.g. ``"profile"``, see ``run_sweep``).
    #: Like ``executor_stats``, never serialized: a store round-trip comes
    #: back with an empty mapping.
    extras: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def approach_names(self) -> List[str]:
        ordered = [name for name in approach_order() if name in self.approaches]
        extras = [name for name in self.approaches if name not in ordered]
        return ordered + extras

    def total_costs(self) -> Dict[str, CostBreakdown]:
        """Total cost breakdown per approach (Figure 3 bar group)."""
        return {name: self.approaches[name].total_costs for name in self.approach_names}

    def confusions(self) -> Dict[str, ConfusionCounts]:
        """Accumulated confusion counts per approach (Table 2)."""
        return {
            name: self.approaches[name].total_confusion for name in self.approach_names
        }

    def per_split_series(self, which: str = "total") -> Dict[str, List[float]]:
        """Per-split cost series per approach (Figure 4)."""
        series = {}
        for name in self.approach_names:
            approach = self.approaches[name]
            if which == "total":
                series[name] = approach.per_split_total_cost
            elif which == "ue":
                series[name] = approach.per_split_ue_cost
            elif which == "mitigation":
                series[name] = approach.per_split_mitigation_cost
            else:
                raise ValueError(f"unknown series {which!r}")
        return series

    def split_labels(self) -> List[str]:
        return [f"split-{split.index + 1}" for split in self.splits]

    def saving_vs_never(self, name: str) -> float:
        """Fractional total-cost saving of ``name`` relative to Never-mitigate."""
        never = self.approaches.get("Never-mitigate")
        target = self.approaches.get(name)
        if never is None or target is None:
            raise KeyError("both the approach and Never-mitigate must be present")
        return target.total_costs.saving_vs(never.total_costs)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`).

        Covers the scientific payload — scenario name, per-approach cost and
        confusion accounting, splits, reduction report, event count and
        wall-clock.  The trained Figure 6 artifacts (``final_rl_policy``,
        ``final_sc20_policy``, ``final_test_features``) are *not* serialized:
        they are model objects, not results, and come back as ``None`` from
        :meth:`from_dict`.
        """
        from repro.serialization import tag

        return tag(
            "experiment_result",
            {
                "scenario_name": self.scenario_name,
                "mitigation_cost_node_hours": self.mitigation_cost_node_hours,
                "approaches": {
                    name: self.approaches[name].to_dict()
                    for name in self.approach_names
                },
                "splits": [split.to_dict() for split in self.splits],
                "reduction_report": self.reduction_report.to_dict(),
                "n_test_events": self.n_test_events,
                "wallclock_seconds": self.wallclock_seconds,
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (trained artifacts come back ``None``)."""
        from repro.serialization import untag

        payload = untag(data, "experiment_result")
        return cls(
            scenario_name=payload["scenario_name"],
            mitigation_cost_node_hours=payload["mitigation_cost_node_hours"],
            approaches={
                name: ApproachResult.from_dict(item)
                for name, item in payload["approaches"].items()
            },
            splits=[TimeSeriesSplit.from_dict(item) for item in payload["splits"]],
            reduction_report=ReductionReport.from_dict(payload["reduction_report"]),
            n_test_events=payload["n_test_events"],
            wallclock_seconds=payload["wallclock_seconds"],
        )

    def to_json(self) -> str:
        """Deterministic JSON text of :meth:`to_dict` (sorted keys)."""
        from repro.serialization import canonical_json

        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        """Inverse of :meth:`to_json`."""
        import json

        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------- #
# Stage outputs
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PreparedData:
    """Output of :func:`prepare_data` — everything the splits consume."""

    scenario: ScenarioConfig
    tracks: Dict[int, NodeFeatureTrack]
    sampler: JobSequenceSampler
    reduction_report: ReductionReport
    #: Content key of the data-preparation inputs (see
    #: :func:`prepared_data_key`).  Identical keys guarantee identical
    #: tracks/sampler, which the trace cache, the forest task keys and the
    #: store rely on.
    data_key: str
    #: Column digest of an ingested error log (``None`` for synthetic
    #: telemetry): the error side of the forest task keys.  The store keeps
    #: none; :class:`PreparedDataCache` sets it from the log it was given.
    error_digest: Optional[str] = None


@dataclass(frozen=True)
class GroupOutcome:
    """Result of one (split × approach-group) executor task."""

    split_index: int
    group: str
    evaluations: Dict[str, PolicyEvaluation]
    n_test_events: int
    #: RL warm-start carry (only set by the "rl" reduce task).
    rl_state: Optional[dict] = None
    #: Trained artifacts for Figure 6 (last split wins during aggregation).
    sc20_policy: Optional[SC20RandomForestPolicy] = None
    rl_policy: Optional[RLPolicy] = None


# --------------------------------------------------------------------- #
# Stages 1 and 2: data preparation and CV layout
# --------------------------------------------------------------------- #
def _effective_manufacturer(
    scenario: ScenarioConfig, config: ExperimentConfig
) -> Optional[int]:
    """Manufacturer restriction: the config override wins over the scenario."""
    if config.manufacturer is not None:
        return config.manufacturer
    return scenario.manufacturer


def _effective_job_scaling(scenario: ScenarioConfig, config: ExperimentConfig) -> float:
    """Job-size scaling: the scenario axis composes with the config knob."""
    return scenario.job_scaling_factor * config.job_scaling_factor


def prepared_data_key(
    scenario: ScenarioConfig,
    config: ExperimentConfig,
    error_log: Optional[ErrorLog] = None,
    job_log: Optional[JobLog] = None,
) -> str:
    """Content key of everything :func:`prepare_data` consumes.

    Two calls with equal keys produce identical :class:`PreparedData`
    products (same telemetry, same reduction, same feature tracks, same
    sampler).  Evaluation-only parameters — mitigation cost,
    restartability, the CV layout, the prediction window — are
    deliberately excluded: sweeps over them share one prepared dataset.
    An ingested log adds the SHA-256 of its columns (names, dtypes and
    bytes), so the same log gives the same key and a log that differs in
    one event a new one.  This key names the product everywhere: the
    in-memory caches, the forest task keys and the ``prepared/`` family of
    :class:`repro.store.ArtifactStore`.
    """
    return _data_keys(scenario, config, error_log, job_log)[0]


def _data_keys(
    scenario: ScenarioConfig,
    config: ExperimentConfig,
    error_log: Optional[ErrorLog],
    job_log: Optional[JobLog],
) -> Tuple[str, Optional[str]]:
    """:func:`prepared_data_key` and ``error_log``'s column digest, one SHA-256 each."""
    payload = {
        "kind": "prepared_data",
        "seed": scenario.seed,
        "topology": scenario.topology.to_dict(),
        "fault_model": scenario.fault_model.to_dict(),
        "workload": scenario.workload.to_dict(),
        "duration_seconds": scenario.duration_seconds,
        "ue_burst_window_seconds": scenario.evaluation.ue_burst_window_seconds,
        "merge_window_seconds": scenario.evaluation.merge_window_seconds,
        "manufacturer": _effective_manufacturer(scenario, config),
        "job_scaling": _effective_job_scaling(scenario, config),
    }
    for field_name, log in (("error_log", error_log), ("job_log", job_log)):
        if log is not None:
            payload[field_name] = _column_digest(log)
    return content_key(payload), payload.get("error_log")


def _column_digest(log) -> str:
    """SHA-256 of a log's columns (names, dtypes and bytes)."""
    digest = hashlib.sha256()
    for name in log.__slots__:
        column = np.ascontiguousarray(getattr(log, name))
        digest.update(f"{name}:{column.dtype.str}:{column.size}:".encode())
        digest.update(column.data)
    return digest.hexdigest()


def _generate_error_log(scenario: ScenarioConfig) -> ErrorLog:
    """The scenario's synthetic telemetry."""
    return TelemetryGenerator(
        scenario.topology,
        scenario.fault_model,
        scenario.duration_seconds,
        seed=RngFactory(scenario.seed).child("telemetry"),
    ).generate()


def _generate_job_log(scenario: ScenarioConfig) -> JobLog:
    """The scenario's synthetic workload."""
    return WorkloadGenerator(
        scenario.workload,
        n_cluster_nodes=scenario.topology.n_nodes,
        duration_seconds=scenario.duration_seconds,
        seed=RngFactory(scenario.seed).stream("workload"),
    ).generate()


def prepare_data(
    scenario: ScenarioConfig,
    config: ExperimentConfig,
    error_log: Optional[ErrorLog] = None,
    job_log: Optional[JobLog] = None,
    *,
    keys: Optional[Tuple[str, Optional[str]]] = None,
) -> PreparedData:
    """Generate (or accept) the logs and derive feature tracks and sampler.

    ``keys`` — the product's ``data_key`` and ``error_digest`` — default to
    those of the arguments.  :class:`PreparedDataCache` passes the keys it
    looked the product up by, together with the logs its sub-caches
    generated for a synthetic key.
    """
    data_key, error_digest = keys or _data_keys(scenario, config, error_log, job_log)
    evaluation_cfg = scenario.evaluation
    if error_log is None:
        error_log = _generate_error_log(scenario)
    manufacturer = _effective_manufacturer(scenario, config)
    if manufacturer is not None:
        error_log = error_log.filter_manufacturer(manufacturer)
    reduced_log, reduction_report = prepare_log(
        error_log, evaluation_cfg.ue_burst_window_seconds
    )

    if job_log is None:
        job_log = _generate_job_log(scenario)
    job_scaling = _effective_job_scaling(scenario, config)
    if job_scaling != 1.0:
        job_log = scale_job_log(job_log, job_scaling)
    sampler = JobSequenceSampler(
        job_log, seed=RngFactory(scenario.seed).stream("sampler")
    )

    tracks = build_feature_tracks(reduced_log, evaluation_cfg.merge_window_seconds)
    return PreparedData(
        scenario=scenario,
        tracks=tracks,
        sampler=sampler,
        reduction_report=reduction_report,
        data_key=data_key,
        error_digest=error_digest,
    )


class PreparedDataCache:
    """Content-keyed cache of :func:`prepare_data` products.

    Sweeps that vary only evaluation parameters (mitigation cost,
    restartability, CV layout) share a single prepared dataset; sweeps along
    a data axis (seed, manufacturer, job scale) additionally share the raw
    telemetry and workload logs through two sub-caches, so e.g. the Figure 5
    per-manufacturer points regenerate nothing but the filtered reduction.

    A cached product is re-bound (``dataclasses.replace``) to each
    requester's scenario, so downstream stages read the right evaluation
    parameters while the heavyweight ``tracks`` / ``sampler`` objects stay
    shared.  Sharing is safe because the pipeline never mutates them: every
    consumer draws randomness from its own keyed stream, never from the
    sampler's internal generator.

    ``hits`` / ``misses`` / ``prepare_calls`` count cache behaviour;
    the property tests assert on them.

    Every product is keyed by :func:`prepared_data_key`: ingested logs by
    their content, so the same log shares one product.

    ``spill`` optionally attaches a disk backend — any object with
    ``load_prepared(scenario, key) -> Optional[PreparedData]``,
    ``save_prepared(prepared)`` and ``delete_prepared(key)``, in practice a
    :class:`repro.store.ArtifactStore`.  On a memory miss the spill is
    consulted before :func:`prepare_data` runs, and every freshly built
    product is written through, so sweeps resume across sessions.  An entry
    that fails to load (a corrupt artifact) is warned about, counted in
    ``spill_rejects``, deleted and rebuilt.  ``spill_hits`` /
    ``spill_saves`` count the disk traffic.

    A forest family keeps SC20 forest fits by their content-keyed task key
    (see :func:`build_split_tasks`), in an LRU of the same ``maxsize``, so
    later sweeps — suite blocks, a claim worker's points — do not refit.
    """

    def __init__(self, maxsize: int = 8, spill=None) -> None:
        self.maxsize = maxsize
        self.spill = spill
        self._prepared: "OrderedDict[str, PreparedData]" = OrderedDict()
        self._telemetry: "OrderedDict[Tuple, ErrorLog]" = OrderedDict()
        self._job_logs: "OrderedDict[Tuple, JobLog]" = OrderedDict()
        self._forests: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.prepare_calls = 0
        self.spill_hits = 0
        self.spill_saves = 0
        self.spill_rejects = 0

    def __len__(self) -> int:
        return len(self._prepared)

    def clear(self) -> None:
        self._prepared.clear()
        self._telemetry.clear()
        self._job_logs.clear()
        self._forests.clear()

    def cached_forests(self, keys: Iterable[str]) -> Dict[str, Any]:
        """The forest fits this cache holds among the task ``keys``."""
        found = {key: self._forests[key] for key in keys if key in self._forests}
        for key in found:
            self._forests.move_to_end(key)
        return found

    def keep_forests(self, results: Dict[str, Any]) -> None:
        """Remember the shared forest fits among executor ``results``."""
        for key, fit in results.items():
            if _SHARED_FOREST_KEY.fullmatch(key):
                self._forests[key] = fit
                self._forests.move_to_end(key)
        self._evict(self._forests, self.maxsize)

    @staticmethod
    def _evict(cache: "OrderedDict", maxsize: int) -> None:
        while len(cache) > maxsize:
            cache.popitem(last=False)

    def _raw_error_log(self, scenario: ScenarioConfig) -> ErrorLog:
        key = (
            scenario.seed,
            scenario.topology,
            scenario.fault_model,
            scenario.duration_seconds,
        )
        if key not in self._telemetry:
            self._telemetry[key] = _generate_error_log(scenario)
            self._evict(self._telemetry, self.maxsize)
        else:
            self._telemetry.move_to_end(key)
        return self._telemetry[key]

    def _raw_job_log(self, scenario: ScenarioConfig) -> JobLog:
        key = (
            scenario.seed,
            scenario.workload,
            scenario.topology.n_nodes,
            scenario.duration_seconds,
        )
        if key not in self._job_logs:
            self._job_logs[key] = _generate_job_log(scenario)
            self._evict(self._job_logs, self.maxsize)
        else:
            self._job_logs.move_to_end(key)
        return self._job_logs[key]

    def _load_spilled(self, scenario: ScenarioConfig, key: str) -> Optional[PreparedData]:
        """The spill's product under ``key``, if any; a corrupt entry is dropped."""
        if self.spill is None:
            return None
        try:
            return self.spill.load_prepared(scenario, key)
        except (ValueError, KeyError, zipfile.BadZipFile) as error:
            warnings.warn(
                f"stored prepared data {key} is unreadable ({error}); "
                "recomputing it",
                RuntimeWarning,
                stacklevel=3,
            )
            self.spill_rejects += 1
            # save_prepared keeps an existing entry: delete it to replace it.
            self.spill.delete_prepared(key)
            return None

    def get(
        self,
        scenario: ScenarioConfig,
        config: ExperimentConfig,
        error_log: Optional[ErrorLog] = None,
        job_log: Optional[JobLog] = None,
    ) -> PreparedData:
        """Return (building at most once) the prepared data for a scenario."""
        key, error_digest = keys = _data_keys(scenario, config, error_log, job_log)
        prepared = self._prepared.get(key)
        if prepared is not None:
            self.hits += 1
            self._prepared.move_to_end(key)
            if prepared.scenario != scenario:
                prepared = replace(prepared, scenario=scenario)
            return prepared
        self.misses += 1
        prepared = self._load_spilled(scenario, key)
        if prepared is not None:
            self.spill_hits += 1
            prepared = replace(prepared, error_digest=error_digest)
        else:
            self.prepare_calls += 1
            if error_log is None:
                error_log = self._raw_error_log(scenario)
            if job_log is None:
                job_log = self._raw_job_log(scenario)
            prepared = prepare_data(
                scenario, config, error_log=error_log, job_log=job_log, keys=keys
            )
            if self.spill is not None:
                self.spill.save_prepared(prepared)
                self.spill_saves += 1
        self._prepared[key] = prepared
        self._evict(self._prepared, self.maxsize)
        return prepared


#: Process-wide default cache used by :func:`repro.evaluation.sweep.run_sweep`
#: when the caller does not supply one, so consecutive sweeps in one session
#: (e.g. the benchmark harness) share prepared data across calls.
_DEFAULT_PREPARED_CACHE = PreparedDataCache()


def default_prepared_cache() -> PreparedDataCache:
    """The process-wide :class:`PreparedDataCache`."""
    return _DEFAULT_PREPARED_CACHE


def make_splits(scenario: ScenarioConfig) -> List[TimeSeriesSplit]:
    """The nested cross-validation splits of Figure 2 for one scenario."""
    evaluation_cfg = scenario.evaluation
    cv = TimeSeriesNestedCV(
        n_parts=evaluation_cfg.cv_parts,
        train_fraction=evaluation_cfg.cv_train_fraction,
        bootstrap_seconds=evaluation_cfg.cv_bootstrap_seconds,
    )
    return cv.splits(0.0, scenario.duration_seconds)


# --------------------------------------------------------------------- #
# Shared per-split resources
# --------------------------------------------------------------------- #
#: Process-wide cache of built test traces, keyed by
#: ``(PreparedData.data_key, split index, test range, trace seed)``.  Every
#: approach group of a split — and every sweep point sharing the same
#: prepared data — replays the *same* trace objects, so rebuilding them once
#: per (split × group) task is pure waste.  Traces are immutable
#: (frozen dataclasses over read-only arrays), which makes sharing safe.
_TRACE_CACHE: "OrderedDict[Tuple, List[EvaluationTrace]]" = OrderedDict()
_TRACE_CACHE_MAXSIZE = 64
#: Guards the cache against the thread executor backend (lookup,
#: LRU reordering and eviction race otherwise: a concurrent evict between
#: get() and move_to_end() raises KeyError and kills the task).
_TRACE_CACHE_LOCK = threading.Lock()


def trace_cache_stats() -> Dict[str, int]:
    """The trace cache's hit/miss :mod:`repro.obs` counters."""
    return obs.counters("trace_cache", ("hits", "misses"))


def clear_trace_cache() -> None:
    """Drop all cached traces (test isolation)."""
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE.clear()


def _cached_range_traces(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    time_range: Tuple[float, float],
    seed: int,
) -> List[EvaluationTrace]:
    """Build (or reuse) the traces of one time range of one prepared dataset.

    Serves the test traces of every approach group and the RL search's
    validation/fallback scoring traces: with per-trial RL tasks, every trial
    of a split scores on the same traces, so rebuilding them once per trial
    (instead of once per split) would be pure waste on the thread/serial
    backends — and on the process backend each worker builds them at most
    once per (split, range).
    """
    key = (prepared.data_key, split.index, tuple(time_range), seed)
    with _TRACE_CACHE_LOCK:
        traces = _TRACE_CACHE.get(key)
        if traces is not None:
            _TRACE_CACHE.move_to_end(key)
    if traces is not None:
        obs.count("trace_cache.hits")
        return traces
    obs.count("trace_cache.misses")
    # Build outside the lock (expensive); concurrent builders of the same
    # key produce identical traces, so the last insert winning is harmless.
    traces = build_traces(prepared.tracks, prepared.sampler, *time_range, seed=seed)
    with _TRACE_CACHE_LOCK:
        _TRACE_CACHE[key] = traces
        while len(_TRACE_CACHE) > _TRACE_CACHE_MAXSIZE:
            _TRACE_CACHE.popitem(last=False)
    return traces


def _cached_test_traces(
    prepared: PreparedData, split: TimeSeriesSplit, seed: int
) -> List[EvaluationTrace]:
    """Build (or reuse) the test traces of one split of one prepared dataset."""
    return _cached_range_traces(prepared, split, split.test_range, seed)


@dataclass(frozen=True)
class SC20SplitArtifacts:
    """Trained forest of one split, shared by the whole SC20-RF family."""

    base_policy: SC20RandomForestPolicy
    optimal_threshold: float

    @property
    def optimal_policy(self) -> SC20RandomForestPolicy:
        return self.base_policy.with_threshold(self.optimal_threshold, name="SC20-RF")


class SplitContext:
    """Everything an approach builder may need for one split.

    A read-only view: it never trains.  Its executor task hands in the
    models — ``forest``, the split's :func:`fit_split_forest` result (the
    "rf" task reads it from its forest task), and ``rl`` with its
    warm-start ``rl_state`` (the "rl" reduce task selects them).  The test
    traces and the forest's optimal-threshold search are computed lazily
    and cached, so the builders of one group share them.
    """

    def __init__(
        self,
        prepared: PreparedData,
        split: TimeSeriesSplit,
        config: ExperimentConfig,
        forest: Optional[RandomForestClassifier] = None,
        rl: Optional[RLPolicy] = None,
        rl_state: Optional[dict] = None,
    ) -> None:
        self.prepared = prepared
        self.split = split
        self.config = config
        #: Best RL agent state of this split, carried to the next split.
        self.rl_state = rl_state
        self._forest = forest
        self._rl = rl
        self.factory = RngFactory(prepared.scenario.seed)
        self._test_traces: Optional[List[EvaluationTrace]] = None
        self._sc20: Optional[SC20SplitArtifacts] = None

    # -- scenario shortcuts -------------------------------------------- #
    @property
    def scenario(self) -> ScenarioConfig:
        return self.prepared.scenario

    @property
    def evaluation_config(self):
        return self.scenario.evaluation

    @property
    def mitigation_cost(self) -> float:
        return self.evaluation_config.mitigation_cost_node_hours

    @property
    def restartable(self) -> bool:
        return self.evaluation_config.restartable

    @property
    def prediction_window(self) -> float:
        return self.evaluation_config.prediction_window_seconds

    @property
    def tracks(self) -> Dict[int, NodeFeatureTrack]:
        return self.prepared.tracks

    # -- shared resources ---------------------------------------------- #
    def test_traces(self) -> List[EvaluationTrace]:
        """The split's test-range traces (identical for every approach).

        Served from the process-wide trace cache keyed by
        ``(data key, split, seed)``, so all approach groups of a split — and
        all sweep points sharing the prepared data — reuse one trace set.
        """
        if self._test_traces is None:
            seed = int(
                self.factory.stream(f"test-{self.split.index}").integers(1 << 30)
            )
            self._test_traces = _cached_test_traces(self.prepared, self.split, seed)
        return self._test_traces

    def evaluate(self, policy: MitigationPolicy, **kwargs) -> PolicyEvaluation:
        """Replay ``policy`` over the split's test traces."""
        kwargs.setdefault("include_training_cost", self.config.charge_training_time)
        return evaluate_policy(
            self.test_traces(),
            policy,
            self.mitigation_cost,
            restartable=self.restartable,
            prediction_window_seconds=self.prediction_window,
            **kwargs,
        )

    def sc20(self) -> Optional[SC20SplitArtifacts]:
        """The given forest at its optimal threshold (None without a forest).

        The threshold search replays this point's test traces at its
        mitigation cost, so it runs here, per point, once per context.
        """
        if self._sc20 is None and self._forest is not None:
            base_policy = SC20RandomForestPolicy(
                self._forest,
                training_cost_node_hours=training_charge_node_hours(
                    forest_nodes=sum(tree.n_nodes for tree in self._forest.trees_)
                ),
            )
            optimal = _select_optimal_threshold(
                base_policy,
                self.test_traces(),
                self.mitigation_cost,
                self.restartable,
                self.prediction_window,
                self.config.threshold_grid_size,
            )
            self._sc20 = SC20SplitArtifacts(base_policy, optimal)
        return self._sc20

    def sc20_if_trained(self) -> Optional[SC20SplitArtifacts]:
        """The cached SC20 artifacts — never runs the threshold search."""
        return self._sc20

    def rl(self) -> Optional[RLPolicy]:
        """The split's selected RL policy (None when none was handed in)."""
        return self._rl


# --------------------------------------------------------------------- #
# Model training helpers
# --------------------------------------------------------------------- #
def _select_optimal_threshold(
    base_policy: SC20RandomForestPolicy,
    traces: Sequence[EvaluationTrace],
    mitigation_cost: float,
    restartable: bool,
    prediction_window: float,
    grid_size: int,
) -> float:
    """Threshold minimising the total cost on ``traces`` (maximum advantage)."""
    best_threshold = 0.5
    best_cost = np.inf
    for threshold in SC20RandomForestPolicy.threshold_grid(grid_size):
        candidate = base_policy.with_threshold(float(threshold))
        evaluation = evaluate_policy(
            traces,
            candidate,
            mitigation_cost,
            restartable=restartable,
            prediction_window_seconds=prediction_window,
            include_training_cost=False,
        )
        if evaluation.costs.total < best_cost:
            best_cost = evaluation.costs.total
            best_threshold = float(threshold)
    return best_threshold


def fit_split_forest(
    prepared: PreparedData, split: TimeSeriesSplit, config: ExperimentConfig
) -> Optional[RandomForestClassifier]:
    """Fit one split's SC20 forest, or ``None``.

    Reads only the feature tracks inside the split's history, the prediction
    window and the forest settings (``None`` when the history holds no
    example), so the points of one telemetry can share it.
    """
    evaluation_cfg = prepared.scenario.evaluation
    dataset = build_prediction_dataset(
        prepared.tracks,
        prediction_window_seconds=evaluation_cfg.prediction_window_seconds,
        t_start=split.train_range[0],
        t_end=split.history_range[1],
    )
    if len(dataset) == 0:
        return None
    seed = RngFactory(prepared.scenario.seed).stream(f"rf-{split.index}")
    return train_sc20_forest(
        dataset,
        n_estimators=config.rf_n_estimators,
        max_depth=config.rf_max_depth,
        seed=int(seed.integers(1 << 30)),
    )


def _score_policy(
    policy: MitigationPolicy,
    traces: Sequence[EvaluationTrace],
    mitigation_cost: float,
    restartable: bool,
    prediction_window: float,
) -> float:
    """Negative total cost of a policy over traces (higher is better)."""
    if not traces:
        return 0.0
    evaluation = evaluate_policy(
        traces,
        policy,
        mitigation_cost,
        restartable=restartable,
        prediction_window_seconds=prediction_window,
        include_training_cost=False,
    )
    return -evaluation.costs.total


@dataclass(frozen=True)
class RLTrialResult:
    """Outcome of one hyperparameter trial of one split's RL search.

    The unit shipped between the per-trial executor tasks and the
    select-best reduce task: the trial's validation score, the trained
    policy parameters (a :meth:`~repro.core.dqn.DDDQNAgent.state_dict` —
    plain numpy arrays, cheap to pickle across the process backend) and the
    trial's modelled training cost in node–hours.  ``trained`` is
    ``False`` when the split had no training data; trial 0 then passes the
    previous split's state through ``state`` unchanged (the warm-start
    carry of splits without history).
    """

    split_index: int
    trial: int
    score: float
    state: Optional[dict]
    training_cost: float
    trained: bool


def _rl_n_first_round(config: ExperimentConfig) -> int:
    """Number of first-round hyperparameter trials per split."""
    return max(1, config.rl_hyperparam_trials)


def _rl_n_trials(config: ExperimentConfig) -> int:
    """Number of hyperparameter trials per split (both search rounds)."""
    return _rl_n_first_round(config) + config.rl_hyperparam_refine


def _rl_trial_settings(
    scenario: ScenarioConfig,
    config: ExperimentConfig,
    split_index: int,
    winner: int = 0,
) -> List[Tuple[DQNConfig, int]]:
    """Pre-draw every trial's ``(DQNConfig, env seed)`` for one split.

    The first round's trials are drawn *sequentially* from the keyed
    ``search-{split}`` stream; trial 0 always uses the base configuration
    unchanged, so a tiny search budget still contains a known-reasonable
    setting.  The second round's trials are drawn from the ``refine-{split}``
    stream, in the space narrowed around the learning rate and γ of first-
    round trial ``winner``.  Each trial's settings are therefore a pure
    function of (scenario, config, split, trial, winner): the per-trial
    tasks give the same numbers whichever worker runs which trial, in any
    order.
    """
    factory = RngFactory(scenario.seed)
    space = HyperparameterSpace()
    rng = factory.stream(f"search-{split_index}")
    settings: List[Tuple[DQNConfig, int]] = []
    for trial in range(_rl_n_trials(config)):
        if trial == _rl_n_first_round(config):
            best = settings[winner][0]
            space = space.narrowed_around(
                {"learning_rate": best.learning_rate, "gamma": best.gamma}
            )
            rng = factory.stream(f"refine-{split_index}")
        params = {} if trial == 0 else space.sample(rng)
        dqn_config = config.rl_base_config.with_overrides(
            hidden_sizes=config.rl_hidden_sizes,
            seed=int(rng.integers(1 << 30)),
            **params,
        )
        env_seed = int(rng.integers(1 << 30))
        settings.append((dqn_config, env_seed))
    return settings


def _rl_train_tracks(
    tracks: Dict[int, NodeFeatureTrack], split: TimeSeriesSplit
) -> Dict[int, NodeFeatureTrack]:
    """The nodes with trainable decision points inside the split's train range
    (none: the split has no RL training data)."""
    sliced = {
        node: track.slice_time(*split.train_range) for node, track in tracks.items()
    }
    return {
        node: track
        for node, track in sliced.items()
        if len(track) and track.n_decision_points > 0
    }


def _rl_scoring_traces(
    prepared: PreparedData, split: TimeSeriesSplit
) -> List[EvaluationTrace]:
    """The traces a split's RL candidates are scored on (keyed seeds).

    Validation-range traces when that range contains UEs; otherwise the
    training range (the Section 4.1 fallback).  Both seeds come from keyed
    streams of the scenario root, so every trial task of a split — on any
    worker — scores on identical traces, served from the process-wide
    trace cache.
    """
    factory = RngFactory(prepared.scenario.seed)
    validation_traces: List[EvaluationTrace] = []
    if split.validation_range[1] > split.validation_range[0]:
        seed = int(factory.stream(f"val-{split.index}").integers(1 << 30))
        validation_traces = _cached_range_traces(
            prepared, split, split.validation_range, seed
        )
    if any(trace.n_ues for trace in validation_traces):
        return validation_traces
    # Fall back to scoring on the training range (Section 4.1) when the
    # validation range contains no UEs.
    seed = int(factory.stream(f"trainscore-{split.index}").integers(1 << 30))
    return _cached_range_traces(prepared, split, split.train_range, seed)


def _agent_from_state(config: ExperimentConfig, state: dict) -> DDDQNAgent:
    """Reconstruct an evaluation-ready agent from checkpointed parameters."""
    return DDDQNAgent.from_state_dict(
        StateNormalizer().state_dim,
        state,
        config.rl_base_config.with_overrides(hidden_sizes=config.rl_hidden_sizes),
    )


def _train_one_rl_trial(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    trial: int,
    config: ExperimentConfig,
    previous_state: Optional[dict],
    winner: int = 0,
) -> RLTrialResult:
    """Train and score one hyperparameter candidate of one split.

    ``winner`` is the first round's best trial, around which a second-round
    trial's settings are narrowed (:func:`_rl_trial_settings`).
    Self-seeding (all randomness comes from keyed streams of the scenario
    root plus the pre-drawn trial settings), so the executor may run trials
    in any order on any worker without changing a single number.  The
    trial's ``training_cost`` is modelled from its own gradient updates and
    environment steps.  The trials of a split share their scoring traces
    through the process-wide trace cache.
    """
    scenario = prepared.scenario
    evaluation_cfg = scenario.evaluation
    train_tracks = _rl_train_tracks(prepared.tracks, split)
    if not train_tracks:
        return RLTrialResult(
            split_index=split.index,
            trial=trial,
            score=-np.inf,
            # Trial 0 carries the warm-start state through splits without
            # training data; the reduce passes it on unchanged.
            state=previous_state if trial == 0 else None,
            training_cost=0.0,
            trained=False,
        )
    scoring_traces = _rl_scoring_traces(prepared, split)
    settings = _rl_trial_settings(scenario, config, split.index, winner)
    dqn_config, env_seed = settings[trial]
    normalizer = StateNormalizer()

    agent = DDDQNAgent(normalizer.state_dim, dqn_config)
    if config.rl_warm_start and previous_state is not None and trial == 0:
        # The paper starts each split from a mix of previously trained
        # and untrained models; the first candidate continues training
        # the best agent of the previous split.
        agent.load_state_dict(previous_state)
    env = MitigationEnv(
        train_tracks,
        prepared.sampler,
        mitigation_cost=evaluation_cfg.mitigation_cost_node_hours,
        restartable=evaluation_cfg.restartable,
        t_start=split.train_range[0],
        t_end=split.train_range[1],
        normalizer=normalizer,
        seed=env_seed,
    )
    train_agent(env, agent, n_episodes=config.rl_episodes)
    score = _score_policy(
        RLPolicy(agent, normalizer),
        scoring_traces,
        evaluation_cfg.mitigation_cost_node_hours,
        evaluation_cfg.restartable,
        evaluation_cfg.prediction_window_seconds,
    )
    return RLTrialResult(
        split_index=split.index,
        trial=trial,
        score=score,
        state=agent.state_dict(),
        training_cost=training_charge_node_hours(
            train_steps=agent.train_steps,
            env_steps=agent.env_steps,
            n_parameters=agent.online.params.size,
        ),
        trained=True,
    )


def _best_rl_trial(trial_results: Iterable[RLTrialResult]) -> Optional[RLTrialResult]:
    """The best trained trial, or ``None`` when no trial trained.

    Trials are considered in index order and a later trial must *strictly*
    beat the running best, so ties resolve to the lowest trial index
    whichever order the tasks finished in.
    """
    best: Optional[RLTrialResult] = None
    best_score = -np.inf
    for result in sorted(trial_results, key=lambda result: result.trial):
        if result.trained and result.score > best_score:
            best_score = result.score
            best = result
    return best


def _select_best_rl_trial(
    config: ExperimentConfig, trial_results: Sequence[RLTrialResult]
) -> Tuple[Optional[DDDQNAgent], float, Optional[dict]]:
    """Fold a split's trial results into (best agent, cost node-hours, state).

    The best trial is :func:`_best_rl_trial`'s.  The charged training cost
    is the sum of every trial's cost, in trial order.
    """
    ordered = sorted(trial_results, key=lambda result: result.trial)
    training_cost = sum(result.training_cost for result in ordered)
    best = _best_rl_trial(ordered)
    if best is None:
        # No trial trained (no history in the train range): pass the
        # previous split's agent through, or nothing if there is none yet.
        carry = ordered[0].state if ordered else None
        if carry is None:
            return None, 0.0, None
        return _agent_from_state(config, carry), 0.0, carry
    return _agent_from_state(config, best.state), training_cost, best.state


# --------------------------------------------------------------------- #
# Executor tasks: the only place a split's models are trained
# --------------------------------------------------------------------- #
def _evaluate_group(
    ctx: SplitContext, group: str, config: ExperimentConfig
) -> GroupOutcome:
    """Build and evaluate every enabled approach of ``group`` on ``ctx``.

    The shared tail of :func:`run_split_group` and :func:`run_rl_reduce`.
    """
    specs = [spec for spec in enabled_specs(config) if spec.group == group]
    evaluations = {
        spec.name: ctx.evaluate(spec.build(ctx, config, ctx.factory))
        for spec in specs
    }
    # The Figure 6 forest is read from the context cache, never computed
    # here: an "rf" builder that did not ask for the shared forest must not
    # pay for its threshold search.
    sc20_artifacts = ctx.sc20_if_trained()
    return GroupOutcome(
        split_index=ctx.split.index,
        group=group,
        evaluations=evaluations,
        n_test_events=sum(len(trace) for trace in ctx.test_traces()),
        rl_state=ctx.rl_state,
        sc20_policy=sc20_artifacts.optimal_policy if sc20_artifacts else None,
        rl_policy=ctx.rl(),
    )


def run_split_group(
    deps: Dict[str, Any],
    prepared: PreparedData,
    split: TimeSeriesSplit,
    group: str,
    config: ExperimentConfig,
) -> GroupOutcome:
    """Evaluate one approach group on one split (executor task).

    ``deps`` holds the split's forest fit for the "rf" group and nothing
    for any other, whose builders therefore get ``None`` from
    :meth:`SplitContext.sc20` / :meth:`SplitContext.rl`.  ``prepared``
    arrives through the executor's ``shared`` channel (shipped once per
    worker, not once per task).
    """
    ensure_sc20_variants(config)
    forest = next(iter(deps.values()), None)
    ctx = SplitContext(prepared, split, config, forest=forest)
    return _evaluate_group(ctx, group, config)


def run_forest_fit(
    deps: Dict[str, Any],
    prepared: PreparedData,
    split: TimeSeriesSplit,
    config: ExperimentConfig,
) -> Optional[RandomForestClassifier]:
    """Fit one split's shared SC20 forest (executor task)."""
    return fit_split_forest(prepared, split, config)


def run_rl_trial(
    deps: Dict[str, Any],
    prepared: PreparedData,
    split: TimeSeriesSplit,
    trial: int,
    config: ExperimentConfig,
) -> RLTrialResult:
    """Train one RL hyperparameter candidate (per-trial executor task).

    ``deps`` is empty for the independent first-round trials 1..N-1; trial
    0 — the warm-started base candidate — receives the previous split's
    "rl" reduce outcome, whose ``rl_state`` seeds this split's warm start.
    A second-round trial receives only :func:`run_rl_search`'s winner
    index.  ``prepared`` arrives through the executor's ``shared`` channel.
    """
    if trial >= _rl_n_first_round(config):
        (winner,) = deps.values()
        return _train_one_rl_trial(prepared, split, trial, config, None, winner)
    previous_state: Optional[dict] = None
    for outcome in deps.values():
        previous_state = outcome.rl_state
    return _train_one_rl_trial(prepared, split, trial, config, previous_state)


def run_rl_search(
    deps: Dict[str, Any],
    prepared: PreparedData,
    split: TimeSeriesSplit,
    config: ExperimentConfig,
) -> int:
    """Index of a split's first-round winner (executor task).

    The winner is :func:`_best_rl_trial`'s over ``deps``, trial 0 when none
    trained.  The second round receives only this index, no agent.
    """
    best = _best_rl_trial(deps.values())
    return 0 if best is None else best.trial


def run_rl_reduce(
    deps: Dict[str, Any],
    prepared: PreparedData,
    split: TimeSeriesSplit,
    config: ExperimentConfig,
) -> GroupOutcome:
    """Select a split's best RL trial and evaluate the "rl" approach group.

    The reduce task of the per-trial fan-out: ``deps`` carries this split's
    :class:`RLTrialResult`\\ s, from which the best candidate is chosen by
    the strictly-better-in-trial-order rule of :func:`_select_best_rl_trial`,
    reconstructed via :meth:`~repro.core.dqn.DDDQNAgent.from_state_dict`
    and handed to every builder of the group.  Keyed under ``rl-{split}``:
    the next split's trial 0 depends on it, and :func:`aggregate` reads it.
    """
    ensure_sc20_variants(config)
    agent, training_cost, best_state = _select_best_rl_trial(
        config, list(deps.values())
    )
    policy = None
    if agent is not None:
        policy = RLPolicy(
            agent, StateNormalizer(), training_cost_node_hours=training_cost
        )
    ctx = SplitContext(prepared, split, config, rl=policy, rl_state=best_state)
    return _evaluate_group(ctx, "rl", config)


# --------------------------------------------------------------------- #
# Task-graph construction
# --------------------------------------------------------------------- #
#: Priority of the tasks on the RL warm-start chain (trial 0, the second
#: search round and the reduce): the chain is the task graph's critical
#: path, so among simultaneously ready tasks it always gets a worker first.
_CHAIN_PRIORITY = 10
#: Forest fits unblock every sharing point's "rf" task: ahead of ordinary
#: tasks, behind the chain.
_FOREST_PRIORITY = 5
#: Keys of shared (content-keyed) forest tasks, the ones a cache keeps.
_SHARED_FOREST_KEY = re.compile(r"forest-[0-9a-f]{16}-\d+")


def _forest_task_key(
    prepared: PreparedData,
    split: TimeSeriesSplit,
    config: ExperimentConfig,
) -> str:
    """Key of the task fitting ``split``'s forest (:func:`fit_split_forest`).

    Content-keyed by the error side of the inputs (the synthetic telemetry's
    parameters, plus an ingested error log's column digest), the split's
    history range, the prediction window and the forest settings — never
    the job log or its scaling, which the forest does not read.
    """
    scenario = prepared.scenario
    evaluation_cfg = scenario.evaluation
    content = (
        # The error side of the key; ``()`` keeps the keys that synthetic
        # forests have always had.
        scenario.seed, scenario.topology, scenario.fault_model,
        scenario.duration_seconds, evaluation_cfg.ue_burst_window_seconds,
        evaluation_cfg.merge_window_seconds, _effective_manufacturer(scenario, config),
        () if prepared.error_digest is None else prepared.error_digest,
        # The split's history and the forest's own settings.
        split.index, split.train_range[0], split.history_range[1],
        evaluation_cfg.prediction_window_seconds,
        config.rf_n_estimators, config.rf_max_depth,
    )
    digest = hashlib.sha256(repr(content).encode("utf-8")).hexdigest()[:16]
    return f"forest-{digest}-{split.index}"


def _point_task(
    deps: Dict[str, Any], shared: Dict[str, PreparedData], fn, point: str, *args
) -> Any:
    """Run task ``fn`` on one point's entry of a per-point prepared-data map."""
    return fn(deps, shared[point], *args)


def build_split_tasks(
    prepared: PreparedData,
    splits: Sequence[TimeSeriesSplit],
    config: ExperimentConfig,
    key_prefix: str = "",
    point: Optional[str] = None,
) -> List[Task]:
    """The executor task graph of one experiment's splits.

    One task per (split × enabled approach group) — except the "rl" group,
    which (when the built-in RL approach is enabled) decomposes into one
    task per hyperparameter trial plus a select-best reduce task per split:

    * ``rl-trial{t}-{k}`` — trial ``t`` of split ``k``.  The first round's
      trials 1..N-1 (``N = rl_hyperparam_trials``) are independent samples
      with **no** dependencies; they fan out across workers immediately.
      Trial 0, the warm-started base candidate, depends on the previous
      split's reduce task — the only cross-split edge, so the serial
      critical path holds ``splits`` (not ``splits × trials``) training
      runs.
    * ``rl-search-{k}`` — only with ``rl_hyperparam_refine = R >= 1``:
      depends on the first round and returns its winner's index.  The
      second round's trials N..N+R-1 depend on it alone and sample the
      space narrowed around that winner.
    * ``rl-{k}`` — the reduce: selects the split's best trial over both
      rounds, evaluates the group, and carries the warm-start state.

    Without the built-in RL approach, an "rl"-group task is an ordinary
    group task: no trials, no chain edge, and its builders get no agent.

    With the "rf" group, each split also gets a ``forest-<digest>-{k}``
    task (:func:`run_forest_fit`); ``rf-{k}`` depends on exactly that task
    and reads the forest from it.  The key is content-keyed and outside
    ``key_prefix`` (:func:`_forest_task_key`): points sharing a telemetry
    emit the same task, and :func:`execute_split_tasks` runs it once.

    Chain tasks (trial 0, the second round and the reduce) get a high
    :attr:`~repro.evaluation.executor.Task.priority` (critical-path-first
    scheduling), forest tasks the next highest.  The
    trial fan-outs of consecutive splits are chained when the warm start
    (or the pass-the-previous-agent-through fallback of splits without
    training data) makes split ``k`` depend on split ``k - 1``; every other
    task depends at most on its split's forest.

    The returned tasks carry only (split[, trial][, group], config); the
    driver passes the heavyweight :class:`PreparedData` once through the
    executor's ``shared`` channel instead of once per task.  ``key_prefix``
    namespaces the per-point keys (and the RL chain's edges) so several
    experiments can coexist in one graph; ``point`` makes the tasks read
    their data from a ``shared`` map of point -> :class:`PreparedData`
    instead — the sweep engine passes each point's label as both.
    """
    ensure_sc20_variants(config)

    def task(key, fn, args, deps=(), priority=0) -> Task:
        if point is not None:
            fn, args = _point_task, (fn, point) + args
        return Task(key=key, fn=fn, args=args, deps=deps, priority=priority)

    groups = approach_groups(config)
    # Fan out per-trial tasks only when the built-in RL approach runs: a
    # custom approach in the "rl" group gets no agent, so nothing trains.
    rl_fan_out = any(spec.name == "RL" for spec in groups.get("rl", []))
    chain_rl = rl_fan_out and (
        config.rl_warm_start
        or any(not _rl_train_tracks(prepared.tracks, split) for split in splits)
    )
    tasks: List[Task] = []
    for split in splits:
        for group in groups:
            if group == "rf":
                forest_key = _forest_task_key(prepared, split, config)
                tasks.append(task(
                    forest_key, run_forest_fit, (split, config), (), _FOREST_PRIORITY
                ))
                tasks.append(task(
                    f"{key_prefix}rf-{split.index}", run_split_group,
                    (split, group, config), (forest_key,),
                ))
            elif group == "rl" and rl_fan_out:
                chain: Tuple[str, ...] = ()
                if chain_rl and split.index > 0:
                    chain = (f"{key_prefix}rl-{split.index - 1}",)
                n_first = _rl_n_first_round(config)
                search_key = f"{key_prefix}rl-search-{split.index}"
                trial_keys = [
                    f"{key_prefix}rl-trial{trial}-{split.index}"
                    for trial in range(_rl_n_trials(config))
                ]
                for trial, key in enumerate(trial_keys):
                    if trial == 0:
                        deps, priority = chain, _CHAIN_PRIORITY
                    elif trial < n_first:
                        deps, priority = (), 0
                    else:
                        deps, priority = (search_key,), _CHAIN_PRIORITY
                    tasks.append(task(
                        key, run_rl_trial, (split, trial, config), deps, priority
                    ))
                if len(trial_keys) > n_first:
                    tasks.append(task(
                        search_key, run_rl_search, (split, config),
                        tuple(trial_keys[:n_first]), _CHAIN_PRIORITY,
                    ))
                tasks.append(task(
                    f"{key_prefix}rl-{split.index}", run_rl_reduce, (split, config),
                    tuple(trial_keys), _CHAIN_PRIORITY,
                ))
            else:
                tasks.append(task(
                    f"{key_prefix}{group}-{split.index}", run_split_group,
                    (split, group, config),
                ))
    return tasks


def execute_split_tasks(
    tasks: Sequence[Task],
    config: ExperimentConfig,
    shared: Any,
    stats: Optional[ExecutorStats] = None,
    cache: Optional[PreparedDataCache] = None,
) -> Dict[str, Any]:
    """Run the :func:`build_split_tasks` graphs of one or more points.

    A forest task several points share runs once; a fit ``cache`` holds is
    not scheduled (it reaches the "rf" tasks as a finished dependency), and
    fresh fits are kept in it.
    """
    graph: Dict[str, Task] = {}
    for task in tasks:
        graph.setdefault(task.key, task)  # only shared forest tasks repeat
    done = cache.cached_forests(graph) if cache is not None else {}
    outcomes = execute_tasks(
        [task for key, task in graph.items() if key not in done],
        n_workers=config.n_workers,
        kind=config.executor_kind,
        shared=shared,
        stats=stats,
        done=done,
    )
    if cache is not None:
        cache.keep_forests(outcomes)
    return outcomes


def task_seconds_by_body(
    tasks: Sequence[Task], stats: ExecutorStats
) -> Dict[str, Dict[int, Tuple[int, float]]]:
    """``{body: {pid: (calls, seconds)}}`` of the tasks ``stats`` timed:
    ``body`` names the pipeline function a task ran (``run_rl_trial``, ...),
    ``pid`` the process that ran it."""
    bodies = {
        task.key: (task.args[0] if task.fn is _point_task else task.fn).__name__
        for task in tasks
    }
    table: Dict[str, Dict[int, Tuple[int, float]]] = {}
    for key, seconds in stats.task_seconds.items():
        per_pid = table.setdefault(bodies[key], {})
        pid = stats.task_pids[key]
        calls, total = per_pid.get(pid, (0, 0.0))
        per_pid[pid] = (calls + 1, total + seconds)
    return table


# --------------------------------------------------------------------- #
# Stage 3: aggregation
# --------------------------------------------------------------------- #
def _final_test_features(
    prepared: PreparedData, splits: Sequence[TimeSeriesSplit], config: ExperimentConfig
) -> Optional[np.ndarray]:
    """Non-UE feature matrix of the last split with test events (Figure 6)."""
    for split in reversed(list(splits)):
        ctx = SplitContext(prepared, split, config)
        traces = ctx.test_traces()
        if traces:
            return np.concatenate([trace.features[~trace.is_ue] for trace in traces])
    return None


def aggregate(
    prepared: PreparedData,
    splits: Sequence[TimeSeriesSplit],
    outcomes: Dict[str, GroupOutcome],
    config: ExperimentConfig,
    wallclock_seconds: float,
) -> ExperimentResult:
    """Fold per-(split × group) outcomes into the final result."""
    groups = approach_groups(config)
    approaches: Dict[str, ApproachResult] = {}
    n_test_events = 0
    final_sc20_policy: Optional[SC20RandomForestPolicy] = None
    final_rl_policy: Optional[RLPolicy] = None

    for split in splits:
        split_outcomes = [
            outcomes[f"{group}-{split.index}"]
            for group in groups
            if f"{group}-{split.index}" in outcomes
        ]
        if split_outcomes:
            n_test_events += split_outcomes[0].n_test_events
        for outcome in split_outcomes:
            for name, evaluation in outcome.evaluations.items():
                approaches.setdefault(name, ApproachResult(name=name)).per_split.append(
                    evaluation
                )
            if outcome.sc20_policy is not None:
                final_sc20_policy = outcome.sc20_policy
            if outcome.rl_policy is not None:
                final_rl_policy = outcome.rl_policy

    return ExperimentResult(
        scenario_name=prepared.scenario.name,
        mitigation_cost_node_hours=prepared.scenario.evaluation.mitigation_cost_node_hours,
        approaches=approaches,
        splits=list(splits),
        reduction_report=prepared.reduction_report,
        n_test_events=n_test_events,
        wallclock_seconds=wallclock_seconds,
        final_rl_policy=final_rl_policy,
        final_sc20_policy=final_sc20_policy,
        final_test_features=_final_test_features(prepared, splits, config),
    )
