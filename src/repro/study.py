"""`Study` — the stable top-level facade over experiments and sweeps.

A :class:`Study` owns the full lifecycle of one investigation: what to run
(a single :class:`~repro.config.ScenarioConfig` or a
:class:`~repro.evaluation.sweep.SweepSpec` over the paper's axes), where its
artifacts live (an optional :class:`~repro.store.ArtifactStore`), and how to
get at the outcome (``.result`` / ``.report()``).  Internally every study
is a :func:`~repro.evaluation.sweep.run_sweep` call — a single-scenario
study is the one-point sweep of its scenario, exactly as
:func:`~repro.evaluation.experiment.run_experiment` is — so a Study produces
bit-for-bit the results of the low-level calls (the golden harness pins
this).

With a store attached, ``run()`` becomes incremental: completed points load
from disk, only missing work executes, and everything computed is written
through.  ``resume()`` is the explicit restart-from-disk entry point — the
same call a results service would make in a later session or on another
machine (points of a run killed mid-execution are recomputed; only finished
points and spilled prepared data persist)::

    study = Study.from_sweep(
        SweepSpec(base=ScenarioConfig.small(), mitigation_costs=(2, 5, 10)),
        store=ArtifactStore("runs/"),
    )
    study.run(ExperimentConfig.fast())      # computes + persists
    ...                                      # new session, same store
    study.resume(ExperimentConfig.fast())   # loads everything, computes nothing
    print(study.report())
"""

from __future__ import annotations

from typing import Optional, Union

from repro.config import ScenarioConfig
from repro.evaluation.pipeline import (
    ExperimentConfig,
    ExperimentResult,
    PreparedDataCache,
    default_prepared_cache,
)
from repro.evaluation.report import format_cost_table, format_metrics_table
from repro.evaluation.sweep import SweepResult, SweepSpec, run_sweep

__all__ = ["Study"]


class Study:
    """One investigation: a scenario or sweep, its artifacts, its result.

    Build one with :meth:`from_scenario` or :meth:`from_sweep`; the
    constructor itself is not public API.
    """

    def __init__(
        self,
        *,
        scenario: Optional[ScenarioConfig] = None,
        spec: Optional[SweepSpec] = None,
        store=None,
        cache: Optional[PreparedDataCache] = None,
    ) -> None:
        if (scenario is None) == (spec is None):
            raise ValueError(
                "a Study wraps exactly one of a scenario or a sweep spec; "
                "use Study.from_scenario(...) or Study.from_sweep(...)"
            )
        self.scenario = scenario
        self.spec = spec
        self.store = store
        if cache is not None:
            self.cache = cache
        elif store is not None:
            # A private cache spilling to the study's store: prepared data
            # written by earlier sessions is reused instead of regenerated.
            self.cache = PreparedDataCache(spill=store)
        else:
            self.cache = default_prepared_cache()
        self.config: Optional[ExperimentConfig] = None
        self._result: Optional[Union[ExperimentResult, SweepResult]] = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scenario(
        cls,
        scenario: ScenarioConfig,
        store=None,
        cache: Optional[PreparedDataCache] = None,
    ) -> "Study":
        """A study of one scenario; ``run()`` yields an ``ExperimentResult``."""
        return cls(scenario=scenario, store=store, cache=cache)

    @classmethod
    def from_sweep(
        cls,
        spec: Union[SweepSpec, ScenarioConfig],
        store=None,
        cache: Optional[PreparedDataCache] = None,
        **axes,
    ) -> "Study":
        """A study of a sweep; ``run()`` yields a ``SweepResult``.

        Accepts a ready :class:`SweepSpec`, or a base
        :class:`ScenarioConfig` plus axis keyword arguments::

            Study.from_sweep(ScenarioConfig.small(),
                             mitigation_costs=(2, 5, 10),
                             restartable=(True, False))
        """
        if isinstance(spec, ScenarioConfig):
            spec = SweepSpec(base=spec, **axes)
        elif axes:
            raise TypeError(
                "axis keyword arguments are only accepted together with a "
                "base ScenarioConfig, not with a ready SweepSpec"
            )
        return cls(spec=spec, store=store, cache=cache)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self, config: Optional[ExperimentConfig] = None
    ) -> Union[ExperimentResult, SweepResult]:
        """Execute the study (incrementally, when a store is attached).

        Both kinds run through ``run_sweep`` (a single scenario as its
        one-point sweep), which loads completed points from the store and
        executes only the missing ones.  Everything computed is written
        through to the store, with the sweep manifest.  To split a sweep
        over workers, see :mod:`repro.distributed`.
        """
        config = config or ExperimentConfig()
        self.config = config
        spec = self.spec if self.spec is not None else SweepSpec(base=self.scenario)
        sweep = run_sweep(spec, config, cache=self.cache, store=self.store)
        self._result = sweep if self.spec is not None else sweep.only_point()
        return self._result

    def resume(
        self, config: Optional[ExperimentConfig] = None
    ) -> Union[ExperimentResult, SweepResult]:
        """Restart from the attached store: load what exists, compute the rest.

        Identical to :meth:`run` except that it *requires* a store — calling
        it without one is a programming error (there is nothing to resume
        from), reported as a :class:`RuntimeError` instead of silently
        recomputing everything.
        """
        if self.store is None:
            raise RuntimeError(
                "Study.resume() needs an ArtifactStore; attach one via "
                "Study.from_scenario(..., store=...) / Study.from_sweep(..., store=...)"
            )
        return self.run(config)

    def status(self, config: Optional[ExperimentConfig] = None) -> list:
        """Per-point progress of a distributed sweep (store required).

        Returns the :class:`~repro.distributed.PointStatus` list of
        :func:`repro.distributed.sweep_status` — done / leased-by-whom /
        pending — without computing anything.
        """
        if self.spec is None or self.store is None:
            raise RuntimeError(
                "Study.status() reports distributed-sweep progress; it needs "
                "a sweep spec and an attached ArtifactStore"
            )
        from repro.distributed import sweep_status

        return sweep_status(self.spec, config or self.config, self.store)

    # ------------------------------------------------------------------ #
    # Outcome access
    # ------------------------------------------------------------------ #
    @property
    def result(self) -> Union[ExperimentResult, SweepResult]:
        """The outcome of the last :meth:`run` / :meth:`resume`."""
        if self._result is None:
            raise RuntimeError("this Study has not been run yet; call .run(config)")
        return self._result

    @property
    def points_loaded(self) -> list:
        """Sweep point labels served from the store by the last run."""
        result = self.result
        if isinstance(result, SweepResult):
            return list(result.extras.get("points_loaded", []))
        return []

    @property
    def points_computed(self) -> list:
        """Sweep point labels actually executed by the last run."""
        result = self.result
        if isinstance(result, SweepResult):
            return list(result.extras.get("points_computed", []))
        return []

    def report(self, which: str = "total") -> str:
        """The study's headline table, rendered by :mod:`repro.evaluation.report`.

        For sweep studies: the points × approaches cost matrix
        (``which`` selects the :class:`CostBreakdown` field).  For
        single-scenario studies: the per-approach cost table, or the Table 2
        classical-ML metrics when ``which == "metrics"``.
        """
        result = self.result
        if isinstance(result, SweepResult):
            return result.table(which=which)
        if which == "metrics":
            return format_metrics_table(result.confusions())
        return format_cost_table(
            result.total_costs(),
            title=f"Total cost (node-hours) — {result.scenario_name}",
        )
