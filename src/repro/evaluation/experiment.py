"""End-to-end experiment driver reproducing the paper's evaluation.

The driver is a thin orchestrator over three explicit layers:

:mod:`repro.evaluation.registry`
    A pluggable registry of the approaches under evaluation (Section 4.2).
    Each approach — Never/Always-mitigate, the SC20-RF family, Myopic-RF,
    the RL agent, the Oracle — is an ``ApproachSpec`` with a
    ``build(ctx, config, rng) -> MitigationPolicy`` factory.  New approaches
    register themselves; this module never has to change.
:mod:`repro.evaluation.pipeline`
    Pure stages, each returning a serializable dataclass:
    ``prepare_data`` (telemetry + workload generation, reduction, Table 1
    feature tracks), ``make_splits`` (the Figure 2 nested cross-validation
    layout), the per-split executor tasks (forest fit, RL trials and their
    select-best reduce, per-group test-range replay — the only place a
    split's models are trained), and ``aggregate`` (the
    :class:`ExperimentResult` behind Figures 3, 4, 5, 7 and Table 2).
:mod:`repro.evaluation.executor`
    A dependency-aware task runner.  :func:`run_experiment` schedules the
    task graph of :func:`~repro.evaluation.pipeline.build_split_tasks` and
    runs it on a process pool when ``ExperimentConfig.n_workers > 1``.
    Every task seeds its own random streams from keyed
    :class:`~repro.utils.rng.RngFactory` streams, so parallel and serial
    schedules produce identical results (set
    ``charge_training_time=False`` to also zero out the wall-clock
    training-cost accounting, the only non-deterministic quantity).

:func:`run_experiment` keeps the historical public signature; the
re-exported :class:`ExperimentConfig`, :class:`ExperimentResult` and
:class:`ApproachResult` live in :mod:`repro.evaluation.pipeline`.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.config import ScenarioConfig
from repro.evaluation.executor import ExecutorStats
from repro.evaluation.pipeline import (
    ApproachResult,
    ExperimentConfig,
    ExperimentResult,
    PreparedDataCache,
    aggregate,
    build_split_tasks,
    execute_split_tasks,
    make_splits,
    prepare_data,
)
from repro.evaluation.registry import approach_order
from repro.telemetry.error_log import ErrorLog
from repro.utils.profiling import StageProfiler
from repro.workload.job import JobLog

__all__ = [
    "APPROACH_ORDER",
    "ApproachResult",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
]

#: Canonical ordering of the approaches (the bars of Figure 3), derived from
#: the registry at import time.  Code that must see approaches registered
#: later should call :func:`repro.evaluation.registry.approach_order`.
APPROACH_ORDER: Tuple[str, ...] = approach_order()


def run_experiment(
    scenario: ScenarioConfig,
    config: Optional[ExperimentConfig] = None,
    error_log: Optional[ErrorLog] = None,
    job_log: Optional[JobLog] = None,
    cache: Optional[PreparedDataCache] = None,
) -> ExperimentResult:
    """Run the full nested-cross-validation evaluation for one scenario.

    Set ``config.n_workers > 1`` to train and evaluate independent
    (split × approach group) tasks concurrently; with
    ``config.charge_training_time=False`` results are bitwise-identical to
    a serial run (the default charges measured wall-clock training time to
    the mitigation costs, which varies run to run).

    ``cache`` optionally serves the prepared data from a
    :class:`~repro.evaluation.pipeline.PreparedDataCache` (with whatever
    sharing and disk-spill behaviour that cache is configured for) instead
    of always rebuilding it, and reuses the SC20 forests it holds for this
    telemetry (fitting only the missing ones, which it then keeps); results
    are identical either way.
    """
    config = config or ExperimentConfig()
    started = time.perf_counter()
    profiler = StageProfiler(enabled=config.profile)

    with profiler.stage("prepare_data"):
        if cache is not None:
            prepared = cache.get(
                scenario, config, error_log=error_log, job_log=job_log
            )
        else:
            prepared = prepare_data(
                scenario, config, error_log=error_log, job_log=job_log
            )
        splits = make_splits(scenario)
    with profiler.stage("execute_tasks"):
        tasks = build_split_tasks(prepared, splits, config)
        stats = ExecutorStats()
        outcomes = execute_split_tasks(tasks, config, prepared, stats, cache)
    with profiler.stage("aggregate"):
        result = aggregate(
            prepared,
            splits,
            outcomes,
            config,
            wallclock_seconds=time.perf_counter() - started,
        )
    result.executor_stats = stats
    if config.profile:
        result.extras["profile"] = profiler.report()
    return result
