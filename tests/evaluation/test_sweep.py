"""Tests for the scenario sweep engine and its cross-scenario caches."""

from __future__ import annotations

import pytest

from repro.config import ScenarioConfig
from repro.evaluation.executor import execute_tasks
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import (
    ExperimentConfig,
    PreparedDataCache,
    prepared_data_key,
)
from repro.evaluation.sweep import SweepSpec, run_sweep
from repro.telemetry.error_log import ErrorLog
from repro.workload.job import JobLog

#: Cheapest config that still runs every approach group (including the RL
#: warm-start chain).
TINY = ExperimentConfig(
    rl_episodes=3,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(8,),
    rf_n_estimators=3,
    rf_max_depth=4,
    threshold_grid_size=3,
    include_myopic=False,
    charge_training_time=False,
)


def _cost_tuple(breakdown):
    return (
        breakdown.ue_cost,
        breakdown.mitigation_cost,
        breakdown.training_cost,
        breakdown.total,
        breakdown.n_ues,
        breakdown.n_mitigations,
    )


@pytest.fixture(scope="module")
def base_scenario():
    return ScenarioConfig.small(seed=7)


# --------------------------------------------------------------------- #
# SweepSpec
# --------------------------------------------------------------------- #
class TestSweepSpec:
    def test_cross_product_and_labels(self, base_scenario):
        spec = SweepSpec(
            base=base_scenario,
            mitigation_costs=(2.0, 5.0, 10.0),
            restartable=(True, False),
        )
        points = spec.points()
        assert spec.n_points == 6
        assert len(points) == 6
        assert points[0].label == "cost=2,restart=on"
        assert points[-1].label == "cost=10,restart=off"
        by_label = {point.label: point for point in points}
        assert (
            by_label["cost=5,restart=off"].scenario
            == base_scenario.with_mitigation_cost(5.0).with_restartable(False)
        )

    def test_axis_values_applied_to_scenario(self, base_scenario):
        spec = SweepSpec(
            base=base_scenario,
            manufacturers=(None, 1),
            job_scales=(3.0,),
            seeds=(11,),
        )
        points = spec.points()
        assert [point.label for point in points] == [
            "seed=11,mfr=all,scale=x3",
            "seed=11,mfr=B,scale=x3",
        ]
        assert points[1].scenario.manufacturer == 1
        assert points[1].scenario.job_scaling_factor == 3.0
        assert points[1].scenario.seed == 11

    def test_degenerate_spec_is_one_point(self, base_scenario):
        points = SweepSpec(base=base_scenario).points()
        assert len(points) == 1
        assert points[0].label == base_scenario.name
        assert points[0].scenario == base_scenario

    def test_duplicate_axis_values_rejected(self, base_scenario):
        spec = SweepSpec(base=base_scenario, mitigation_costs=(5.0, 5.0))
        with pytest.raises(ValueError, match="duplicate sweep point"):
            spec.points()

    def test_empty_axis_rejected(self, base_scenario):
        with pytest.raises(ValueError, match="must not be empty"):
            SweepSpec(base=base_scenario, seeds=()).points()


# --------------------------------------------------------------------- #
# run_sweep == N independent run_experiment calls (the acceptance grid)
# --------------------------------------------------------------------- #
class TestRunSweep:
    @pytest.fixture(scope="class")
    def cost_restart_sweep(self, base_scenario):
        cache = PreparedDataCache()
        spec = SweepSpec(
            base=base_scenario,
            mitigation_costs=(2.0, 5.0, 10.0),
            restartable=(True, False),
        )
        return run_sweep(spec, TINY, cache=cache), cache

    def test_prepare_data_called_exactly_once(self, cost_restart_sweep):
        sweep, cache = cost_restart_sweep
        assert len(sweep) == 6
        assert sweep.prepare_calls == 1
        assert cache.prepare_calls == 1
        assert sweep.cache_hits == 5

    def test_results_identical_to_independent_runs(
        self, cost_restart_sweep, base_scenario
    ):
        sweep, _ = cost_restart_sweep
        for cost in (2.0, 5.0, 10.0):
            for restartable in (True, False):
                label = (
                    f"cost={cost:g},restart={'on' if restartable else 'off'}"
                )
                scenario = base_scenario.with_mitigation_cost(cost).with_restartable(
                    restartable
                )
                independent = run_experiment(scenario, TINY)
                swept = sweep[label]
                assert swept.approach_names == independent.approach_names, label
                for name in independent.approach_names:
                    assert _cost_tuple(swept.total_costs()[name]) == _cost_tuple(
                        independent.total_costs()[name]
                    ), f"{label}: {name}"
                assert swept.n_test_events == independent.n_test_events, label

    def test_series_and_table(self, cost_restart_sweep):
        sweep, _ = cost_restart_sweep
        never = sweep.series("Never-mitigate")
        assert len(never) == 6
        assert all(value > 0 for value in never)
        table = sweep.table()
        assert "cost=10,restart=off" in table
        assert "Never-mitigate" in table
        point_table = sweep.point_table("cost=2,restart=on")
        assert "Oracle" in point_table

    def test_unknown_point_names_the_available_labels(self, cost_restart_sweep):
        sweep, _ = cost_restart_sweep
        with pytest.raises(KeyError) as excinfo:
            sweep["cost=3,restart=on"]
        message = str(excinfo.value)
        assert "cost=3,restart=on" in message
        assert "available points" in message
        assert "cost=2,restart=on" in message
        # point_table goes through the same diagnostic path.
        with pytest.raises(KeyError, match="available points"):
            sweep.point_table("nope")

    def test_unknown_approach_names_the_available_approaches(
        self, cost_restart_sweep
    ):
        sweep, _ = cost_restart_sweep
        with pytest.raises(KeyError) as excinfo:
            sweep.series("Sometimes-mitigate")
        message = str(excinfo.value)
        assert "Sometimes-mitigate" in message
        assert "available approaches" in message
        assert "Never-mitigate" in message

    def test_unknown_series_field_names_the_cost_fields(self, cost_restart_sweep):
        sweep, _ = cost_restart_sweep
        with pytest.raises(ValueError) as excinfo:
            sweep.series("Never-mitigate", which="grand_total")
        message = str(excinfo.value)
        assert "grand_total" in message
        assert "ue_cost" in message and "mitigation_cost" in message

    def test_thread_backend_matches_serial(self, base_scenario):
        spec = SweepSpec(base=base_scenario, mitigation_costs=(2.0, 10.0))
        serial = run_sweep(spec, TINY, cache=PreparedDataCache())
        threaded = run_sweep(
            spec,
            TINY.with_overrides(n_workers=2, executor_kind="thread"),
            cache=PreparedDataCache(),
        )
        for label in serial.labels:
            for name in serial[label].approach_names:
                assert _cost_tuple(serial[label].total_costs()[name]) == _cost_tuple(
                    threaded[label].total_costs()[name]
                ), f"{label}: {name}"

    def test_external_error_log_passthrough(self, base_scenario):
        """A supplied error log feeds every point, like in run_experiment."""
        from repro.evaluation.pipeline import clear_trace_cache
        from repro.telemetry.generator import TelemetryGenerator

        # Start from an empty trace cache: a stale synthetic-run entry must
        # not be able to mask the external log (regression guard for the
        # log digest in PreparedData.data_key).
        clear_trace_cache()
        synthetic = run_experiment(base_scenario, TINY.with_overrides(include_rl=False))
        # Deliberately seeded differently from prepare_data's own generator.
        error_log = TelemetryGenerator(
            base_scenario.topology,
            base_scenario.fault_model,
            base_scenario.duration_seconds,
            seed=base_scenario.seed,
        ).generate()
        config = TINY.with_overrides(include_rl=False)
        spec = SweepSpec(base=base_scenario, manufacturers=(None, 0))
        sweep = run_sweep(spec, config, cache=PreparedDataCache(), error_log=error_log)
        # The external log genuinely drove the evaluation: the whole-fleet
        # point differs from the synthetic run of the same scenario.
        assert _cost_tuple(sweep["mfr=all"].total_costs()["Never-mitigate"]) != (
            _cost_tuple(synthetic.total_costs()["Never-mitigate"])
        )
        for label, manufacturer in (("mfr=all", None), ("mfr=A", 0)):
            independent = run_experiment(
                base_scenario.with_manufacturer(manufacturer),
                config,
                error_log=error_log,
            )
            for name in independent.approach_names:
                assert _cost_tuple(sweep[label].total_costs()[name]) == _cost_tuple(
                    independent.total_costs()[name]
                ), f"{label}: {name}"

    def test_scenario_axes_match_config_overrides(self, base_scenario):
        """The new ScenarioConfig axes mirror the ExperimentConfig knobs."""
        config = TINY.with_overrides(include_rl=False)
        via_scenario = run_experiment(
            base_scenario.with_manufacturer(2).with_job_scale(3.0), config
        )
        via_config = run_experiment(
            base_scenario,
            config.with_overrides(manufacturer=2, job_scaling_factor=3.0),
        )
        for name in via_config.approach_names:
            assert _cost_tuple(via_scenario.total_costs()[name]) == _cost_tuple(
                via_config.total_costs()[name]
            ), name


# --------------------------------------------------------------------- #
# PreparedDataCache (the property tests of the cross-scenario cache)
# --------------------------------------------------------------------- #
class TestPreparedDataCache:
    def test_evaluation_only_changes_hit(self, base_scenario):
        """Points differing only in mitigation cost share one product."""
        cache = PreparedDataCache()
        a = cache.get(base_scenario.with_mitigation_cost(2.0), TINY)
        b = cache.get(base_scenario.with_mitigation_cost(10.0), TINY)
        assert cache.prepare_calls == 1
        assert cache.hits == 1
        # The heavyweight products are the *same objects* (stronger than
        # byte-identical); only the scenario binding differs.
        assert a.tracks is b.tracks
        assert a.sampler is b.sampler
        assert a.reduction_report is b.reduction_report
        assert a.data_key == b.data_key
        assert b.scenario.evaluation.mitigation_cost_node_minutes == 10.0

    def test_restartable_change_hits_too(self, base_scenario):
        cache = PreparedDataCache()
        a = cache.get(base_scenario, TINY)
        b = cache.get(base_scenario.with_restartable(False), TINY)
        assert cache.prepare_calls == 1
        assert a.tracks is b.tracks

    def test_differing_seeds_miss(self, base_scenario):
        cache = PreparedDataCache()
        a = cache.get(base_scenario, TINY)
        b = cache.get(base_scenario.with_seed(99), TINY)
        assert cache.prepare_calls == 2
        assert cache.hits == 0
        assert a.tracks is not b.tracks
        assert a.data_key != b.data_key

    def test_manufacturer_miss_shares_raw_telemetry(self, base_scenario):
        """A data-axis miss rebuilds the reduction but not the raw logs."""
        cache = PreparedDataCache()
        cache.get(base_scenario, TINY)
        cache.get(base_scenario.with_manufacturer(0), TINY)
        assert cache.prepare_calls == 2
        assert len(cache._telemetry) == 1
        assert len(cache._job_logs) == 1

    def test_external_logs_share_trace_cache_entries_by_content(self, base_scenario):
        """A synthetic run must not poison an external-log run's traces.

        ``prepared_data_key`` adds the digest of an externally fed log to the
        ``data_key``; without it, the process-wide trace cache would serve
        the synthetic run's traces to the external-log run of the same
        scenario (and vice versa).  The same log gives the same key.
        """
        from repro.evaluation.pipeline import prepare_data
        from repro.telemetry.generator import TelemetryGenerator

        synthetic = prepare_data(base_scenario, TINY)
        external_log = TelemetryGenerator(
            base_scenario.topology,
            base_scenario.fault_model,
            base_scenario.duration_seconds,
            seed=base_scenario.seed,
        ).generate()
        fed_once = prepare_data(base_scenario, TINY, error_log=external_log)
        fed_twice = prepare_data(base_scenario, TINY, error_log=external_log)
        assert fed_once.data_key != synthetic.data_key
        assert fed_once.data_key == fed_twice.data_key

    def test_same_ingested_log_is_prepared_once(self, base_scenario, raw_error_log):
        cache = PreparedDataCache()
        first = cache.get(base_scenario, TINY, error_log=raw_error_log)
        copy = ErrorLog(
            **{name: getattr(raw_error_log, name).copy() for name in ErrorLog.__slots__}
        )
        second = cache.get(base_scenario.with_mitigation_cost(10.0), TINY, error_log=copy)
        assert (cache.prepare_calls, cache.hits) == (1, 1)
        assert second.tracks is first.tracks
        assert second.data_key == first.data_key

    def test_one_changed_event_changes_the_key(self, base_scenario, raw_error_log):
        columns = {name: getattr(raw_error_log, name).copy() for name in ErrorLog.__slots__}
        columns["ce_count"][len(raw_error_log) // 2] += 1
        changed = ErrorLog(**columns)
        key = prepared_data_key(base_scenario, TINY, error_log=raw_error_log)
        assert prepared_data_key(base_scenario, TINY, error_log=changed) != key
        assert prepared_data_key(base_scenario, TINY, job_log=JobLog.empty()) != (
            prepared_data_key(base_scenario, TINY)
        )

    def test_key_ignores_evaluation_parameters(self, base_scenario):
        key_a = prepared_data_key(base_scenario, TINY)
        key_b = prepared_data_key(
            base_scenario.with_mitigation_cost(10.0).with_restartable(False), TINY
        )
        assert key_a == key_b
        assert prepared_data_key(base_scenario.with_seed(8), TINY) != key_a
        assert prepared_data_key(base_scenario.with_job_scale(2.0), TINY) != key_a


# --------------------------------------------------------------------- #
# Serial-fallback warning propagation (PR 1 review fix, through run_sweep)
# --------------------------------------------------------------------- #
class TestSerialFallbackWarning:
    def test_runtime_warning_propagates_through_run_sweep(
        self, base_scenario, monkeypatch
    ):
        """A dead/forbidden process pool must stay visible in sweep runs."""
        import repro.evaluation.executor as executor_module

        def _refuse(*args, **kwargs):
            raise OSError("process spawning forbidden by test")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _refuse)
        spec = SweepSpec(base=base_scenario, mitigation_costs=(2.0,))
        config = TINY.with_overrides(
            include_rl=False, n_workers=2, executor_kind="process"
        )
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            result = run_sweep(spec, config, cache=PreparedDataCache())
        # The fallback still produces the full result set.
        assert result["cost=2"].approach_names

    def test_execute_tasks_warning_baseline(self, monkeypatch):
        """Same fallback at the executor layer (guards the match string)."""
        import repro.evaluation.executor as executor_module

        def _refuse(*args, **kwargs):
            raise OSError("process spawning forbidden by test")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _refuse)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = execute_tasks(
                [executor_module.Task(key="t", fn=_noop_task)],
                n_workers=2,
                kind="process",
            )
        assert results["t"] == "ok"


def _noop_task(deps):
    return "ok"
