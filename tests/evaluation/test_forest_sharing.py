"""Tests for the shared, content-keyed SC20 forest fits.

The SC20 forest of a split depends only on the error-log feature tracks
inside the split's history, the prediction window and the forest settings,
so every sweep point and suite block sharing a telemetry shares one
``forest-<digest>-<k>`` task per split, and a :class:`PreparedDataCache`
carries the fits on to later sweeps.  These tests pin that the sharing
fits exactly the distinct keys, never merges inputs that differ, and leaves
every point's results bit-identical to its own ``run_experiment``.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from repro.baselines.random_forest import RandomForestClassifier
from repro.config import ScenarioConfig
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import (
    ExperimentConfig,
    PreparedDataCache,
    build_split_tasks,
    fit_split_forest,
    make_splits,
    prepare_data,
)
from repro.evaluation.sweep import SweepSpec, run_sweep
from repro.serialization import canonical_json
from repro.store import ArtifactStore
from repro.telemetry.generator import TelemetryGenerator
from repro.utils.rng import RngFactory
from repro.utils.timeutils import DAY

TINY = ExperimentConfig(
    rl_episodes=3,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(8,),
    rf_n_estimators=3,
    rf_max_depth=4,
    threshold_grid_size=3,
    executor_kind="serial",
    charge_training_time=False,
)
#: The forest family only: fit counting needs no RL training.
RF_ONLY = TINY.with_overrides(include_rl=False, include_oracle=False)


@pytest.fixture(scope="module")
def scenario():
    return ScenarioConfig.small(seed=13).with_duration(60 * DAY)


@pytest.fixture(scope="module")
def prepared(scenario):
    return prepare_data(scenario, TINY)


@pytest.fixture(scope="module")
def ingested_log(scenario):
    """The scenario's telemetry, handed in as an ingested log."""
    return TelemetryGenerator(
        scenario.topology,
        scenario.fault_model,
        scenario.duration_seconds,
        seed=RngFactory(scenario.seed).child("telemetry"),
    ).generate()


def _forest_keys(prepared_data, config, key_prefix=""):
    tasks = build_split_tasks(
        prepared_data, make_splits(prepared_data.scenario), config, key_prefix
    )
    return {task.key for task in tasks if "forest-" in task.key}


def _scientific(result):
    """A result's canonical JSON without its wall-clock diagnostic."""
    payload = result.to_dict()
    payload["wallclock_seconds"] = 0.0
    return canonical_json(payload)


@pytest.fixture
def fit_calls(monkeypatch):
    """Counts every ``RandomForestClassifier.fit`` call."""
    calls = []
    original = RandomForestClassifier.fit

    def counting_fit(self, X, y):
        calls.append(len(X))
        return original(self, X, y)

    monkeypatch.setattr(RandomForestClassifier, "fit", counting_fit)
    return calls


class TestFitsOncePerKey:
    def test_two_sweeps_through_one_cache_fit_the_distinct_keys(
        self, scenario, prepared, fit_calls
    ):
        splits = make_splits(scenario)
        with_data = sum(
            fit_split_forest(prepared, split, RF_ONLY) is not None for split in splits
        )
        assert with_data >= 4
        calls = fit_calls
        calls.clear()
        cache = PreparedDataCache()
        fig3 = run_sweep(
            SweepSpec(
                base=scenario, mitigation_costs=(2.0, 10.0), restartable=(True, False)
            ),
            RF_ONLY,
            cache=cache,
        )
        # Four points, one telemetry: one fit per split with history.
        assert len(calls) == with_data
        fig7 = run_sweep(
            SweepSpec(base=scenario, job_scales=(0.25, 4.0)), RF_ONLY, cache=cache
        )
        # Job scale changes the workload only: the second sweep refits nothing.
        assert len(calls) == with_data
        assert len(fig3) == 4 and len(fig7) == 2
        ran = fig7.extras["executor_stats"].task_seconds
        assert ran and not any(key.startswith("forest-") for key in ran)

    def test_an_ingested_log_sweep_along_job_scales_fits_once_per_split(
        self, scenario, ingested_log, fit_calls
    ):
        spec = SweepSpec(base=scenario, job_scales=(0.25, 4.0))
        run_sweep(spec, RF_ONLY, cache=PreparedDataCache(), error_log=ingested_log)
        # The forests read the error log only: both job scales share them.
        assert len(fit_calls) == 6
        fit_calls.clear()
        run_sweep(spec, RF_ONLY, cache=PreparedDataCache())
        assert len(fit_calls) == 6

    def test_run_experiment_with_a_cache_reuses_its_forests(
        self, scenario, fit_calls
    ):
        cache = PreparedDataCache()
        first = run_experiment(scenario, RF_ONLY, cache=cache)
        fitted = len(fit_calls)
        assert fitted > 0
        second = run_experiment(
            scenario.with_mitigation_cost(10.0), RF_ONLY, cache=cache
        )
        assert len(fit_calls) == fitted
        # Without a cache every run fits its own forests.
        run_experiment(scenario, RF_ONLY)
        assert len(fit_calls) == 2 * fitted
        assert first.approaches["SC20-RF"].per_split
        assert second.approaches["SC20-RF"].per_split


class TestForestKeys:
    def test_evaluation_and_workload_axes_share_the_keys(self, scenario, prepared):
        cache = PreparedDataCache()
        base = _forest_keys(prepared, TINY)
        assert len(base) == len(make_splits(scenario))
        for variant in (
            scenario.with_mitigation_cost(10.0),
            scenario.with_restartable(False),
            scenario.with_job_scale(4.0),
        ):
            assert _forest_keys(cache.get(variant, TINY), TINY) == base
        # The key prefix namespaces a point's own tasks, never its forests.
        assert _forest_keys(prepared, TINY, key_prefix="cost=2/") == base

    def test_error_side_and_forest_settings_get_distinct_keys(
        self, scenario, prepared
    ):
        cache = PreparedDataCache()
        base = _forest_keys(prepared, TINY)
        wider = replace(
            scenario,
            evaluation=replace(scenario.evaluation, prediction_window_seconds=2 * DAY),
        )
        variants = {
            "seed": _forest_keys(cache.get(scenario.with_seed(14), TINY), TINY),
            "manufacturer": _forest_keys(
                cache.get(scenario.with_manufacturer(2), TINY), TINY
            ),
            "prediction window": _forest_keys(
                replace(prepared, scenario=wider), TINY
            ),
            "rf_n_estimators": _forest_keys(
                prepared, TINY.with_overrides(rf_n_estimators=4)
            ),
            "rf_max_depth": _forest_keys(prepared, TINY.with_overrides(rf_max_depth=5)),
        }
        for axis, keys in variants.items():
            assert keys and not keys & base, axis
        every = [base, *variants.values()]
        assert len(set().union(*every)) == sum(len(keys) for keys in every)

    def test_config_manufacturer_matches_the_scenario_axis(self, scenario):
        cache = PreparedDataCache()
        by_config = TINY.with_overrides(manufacturer=2)
        assert _forest_keys(cache.get(scenario, by_config), by_config) == _forest_keys(
            cache.get(scenario.with_manufacturer(2), TINY), TINY
        )


class TestNeverShared:
    def test_external_logs_share_forests_by_content(
        self, scenario, prepared, ingested_log
    ):
        log = ingested_log
        first = _forest_keys(prepare_data(scenario, TINY, error_log=log), TINY)
        second = _forest_keys(prepare_data(scenario, TINY, error_log=log), TINY)
        other = _forest_keys(
            prepare_data(scenario, TINY, error_log=log.filter_manufacturer(2)), TINY
        )
        synthetic = _forest_keys(prepared, TINY)
        # The same content as the synthetic log, but never its forests.
        assert not first & synthetic
        assert first == second
        assert not first & other

    def test_spilled_products_keep_their_forest_keys(
        self, scenario, ingested_log, tmp_path
    ):
        # A store entry carries no error digest (nor did one written before
        # forests were keyed by it); reloaded, it shares the fresh forests.
        store = ArtifactStore(tmp_path / "runs")
        for error_log in (None, ingested_log):
            fresh = PreparedDataCache(spill=store).get(
                scenario, TINY, error_log=error_log
            )
            reader = PreparedDataCache(spill=store)
            spilled = reader.get(scenario, TINY, error_log=error_log)
            assert reader.spill_hits == 1
            assert _forest_keys(spilled, TINY) == _forest_keys(fresh, TINY)

    def test_external_log_run_refits_despite_a_warm_cache(
        self, scenario, ingested_log, fit_calls
    ):
        cache = PreparedDataCache()
        synthetic = run_experiment(scenario, RF_ONLY, cache=cache)
        fitted = len(fit_calls)
        external = run_experiment(
            scenario, RF_ONLY, error_log=ingested_log, cache=cache
        )
        assert len(fit_calls) == 2 * fitted
        # Same content, so the same numbers — but never the same forests.
        assert (
            synthetic.approaches["SC20-RF"].per_split
            == external.approaches["SC20-RF"].per_split
        )


class TestCacheForestFamily:
    KEYS = [f"forest-{digit * 16}-{k}" for k, digit in enumerate("abc")]

    def test_lru_eviction_bounded_by_maxsize(self):
        cache = PreparedDataCache(maxsize=2)
        cache.keep_forests({self.KEYS[0]: "a", self.KEYS[1]: "b"})
        # A lookup refreshes the entry, so the next insert evicts the other.
        assert cache.cached_forests([self.KEYS[0]]) == {self.KEYS[0]: "a"}
        cache.keep_forests({self.KEYS[2]: "c"})
        assert cache.cached_forests(self.KEYS) == {self.KEYS[0]: "a", self.KEYS[2]: "c"}

    def test_only_shared_forest_results_are_kept(self):
        cache = PreparedDataCache()
        cache.keep_forests(
            {"rf-0": "outcome", "cost=2/forest-0": "local", "forest-0": "local",
             self.KEYS[0]: None}
        )
        # A split without history fits nothing; that is cached too.
        assert cache.cached_forests(
            ["rf-0", "cost=2/forest-0", "forest-0", self.KEYS[0]]
        ) == {self.KEYS[0]: None}

    def test_clear_drops_the_forests(self):
        cache = PreparedDataCache()
        cache.keep_forests({self.KEYS[0]: "a"})
        cache.clear()
        assert cache.cached_forests(self.KEYS) == {}


class TestResultsUnchanged:
    SPEC_AXES = dict(mitigation_costs=(2.0, 10.0), restartable=(True, False))

    @pytest.fixture(scope="class")
    def independent(self, scenario):
        spec = SweepSpec(base=scenario, **self.SPEC_AXES)
        return {
            point.label: _scientific(run_experiment(point.scenario, TINY))
            for point in spec.points()
        }

    @pytest.mark.parametrize(
        "schedule",
        [
            {},
            {"n_workers": 2, "executor_kind": "process"},
            # More threads than cores, switching often: the points' rf tasks
            # share one forest object (and its panel-prediction cache).
            {"n_workers": 4, "executor_kind": "thread"},
        ],
        ids=["serial", "process-2", "thread-4"],
    )
    def test_each_point_matches_its_own_run(self, scenario, independent, schedule):
        spec = SweepSpec(base=scenario, **self.SPEC_AXES)
        config = TINY.with_overrides(**schedule)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = run_sweep(spec, config, cache=PreparedDataCache())
        finally:
            sys.setswitchinterval(interval)
        points = {label: _scientific(result[label]) for label in result.labels}
        assert points == independent

    def test_points_charge_the_same_forest_training_cost(self, scenario):
        config = RF_ONLY.with_overrides(charge_training_time=True)
        cache = PreparedDataCache()
        fig3 = run_sweep(
            SweepSpec(base=scenario, **self.SPEC_AXES), config, cache=cache
        )
        fig7 = run_sweep(
            SweepSpec(base=scenario, job_scales=(0.25, 4.0)), config, cache=cache
        )
        points = [*fig3.results.values(), *fig7.results.values()]
        for name in ("SC20-RF", "SC20-RF-2%", "SC20-RF-5%", "Myopic-RF"):
            per_point = [
                [split.costs.training_cost for split in point.approaches[name].per_split]
                for point in points
            ]
            assert any(cost > 0 for cost in per_point[0]), name
            assert all(costs == per_point[0] for costs in per_point), name
