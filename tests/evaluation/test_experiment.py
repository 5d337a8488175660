"""Tests for the end-to-end experiment driver (scaled-down schedule)."""

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.experiment import (
    ApproachResult,
    ExperimentConfig,
    run_experiment,
)
from repro.evaluation.pipeline import PreparedDataCache, default_prepared_cache
from repro.evaluation.runner import PolicyEvaluation
from repro.evaluation.metrics import ConfusionCounts
from repro.evaluation.sweep import SweepSpec, run_sweep
from repro.serialization import canonical_json
from repro.utils.timeutils import DAY


@pytest.fixture(scope="module")
def tiny_result():
    """A deliberately tiny experiment: exercises the full pipeline quickly."""
    scenario = ScenarioConfig.small(seed=13)
    config = ExperimentConfig(
        rl_episodes=15,
        rl_hyperparam_trials=1,
        rl_hidden_sizes=(16, 8),
        rf_n_estimators=5,
        rf_max_depth=5,
        threshold_grid_size=6,
    )
    return run_experiment(scenario, config)


class TestExperimentConfig:
    def test_presets(self):
        assert ExperimentConfig.fast().rl_episodes < ExperimentConfig().rl_episodes
        paper = ExperimentConfig.paper()
        assert paper.rl_episodes == 20_000
        assert paper.rl_hyperparam_trials == 60
        assert tuple(paper.rl_hidden_sizes) == (256, 256, 128, 64)

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(job_scaling_factor=3.0)
        assert config.job_scaling_factor == 3.0


class TestApproachResult:
    def test_totals_aggregate_splits(self):
        result = ApproachResult(
            name="RL",
            per_split=[
                PolicyEvaluation("RL", CostBreakdown(ue_cost=1.0), ConfusionCounts(1, 0, 0, 0), 1, 5),
                PolicyEvaluation("RL", CostBreakdown(ue_cost=2.0, mitigation_cost=0.5),
                                 ConfusionCounts(0, 1, 2, 3), 1, 5),
            ],
        )
        assert result.total_costs.ue_cost == pytest.approx(3.0)
        assert result.total_confusion.true_positives == 1
        assert result.per_split_total_cost == [pytest.approx(1.0), pytest.approx(2.5)]


class TestRunExperiment:
    def test_all_approaches_present(self, tiny_result):
        from repro.evaluation.registry import enabled_specs

        enabled = [spec.name for spec in enabled_specs(ExperimentConfig())]
        for name in enabled:
            assert name in tiny_result.approaches, f"missing approach {name}"
        # Default-off registrations (Fleet-mix) must not sneak into a
        # default-config run.
        assert set(tiny_result.approaches) == set(enabled)

    def test_every_approach_covers_every_split(self, tiny_result):
        n_splits = len(tiny_result.splits)
        for approach in tiny_result.approaches.values():
            assert len(approach.per_split) == n_splits

    def test_cost_orderings(self, tiny_result):
        costs = tiny_result.total_costs()
        never = costs["Never-mitigate"]
        oracle = costs["Oracle"]
        always = costs["Always-mitigate"]
        # The Oracle is the best possible event-triggered policy (up to its
        # negligible mitigation overhead); Never pays the most UE cost;
        # Always pays the most mitigation cost.
        assert oracle.ue_cost <= min(c.ue_cost for c in costs.values()) + 1e-6
        assert (
            oracle.total
            <= min(c.total for c in costs.values()) + oracle.mitigation_cost + 1e-6
        )
        assert never.ue_cost >= max(c.ue_cost for c in costs.values()) - 1e-6
        assert never.mitigation_cost == 0.0
        assert always.n_mitigations >= max(c.n_mitigations for c in costs.values())

    def test_oracle_precision_is_near_one(self, tiny_result):
        # Oracle mitigations are almost all true positives; a mitigation only
        # fails to count when the last event falls inside the mitigation
        # overhead window right before the UE.
        confusion = tiny_result.confusions()["Oracle"]
        if confusion.n_mitigations:
            assert confusion.precision >= 0.8

    def test_ue_counts_identical_across_approaches(self, tiny_result):
        ue_counts = {c.n_ues for c in tiny_result.total_costs().values()}
        assert len(ue_counts) == 1

    def test_saving_vs_never(self, tiny_result):
        saving = tiny_result.saving_vs_never("Oracle")
        assert 0.0 <= saving <= 1.0

    def test_per_split_series_shapes(self, tiny_result):
        series = tiny_result.per_split_series("total")
        labels = tiny_result.split_labels()
        assert all(len(v) == len(labels) for v in series.values())
        with pytest.raises(ValueError):
            tiny_result.per_split_series("bogus")

    def test_final_artifacts_available(self, tiny_result):
        assert tiny_result.final_sc20_policy is not None
        assert tiny_result.final_rl_policy is not None
        assert tiny_result.final_test_features is not None
        assert tiny_result.final_test_features.shape[1] > 0

    def test_reduction_report_recorded(self, tiny_result):
        assert tiny_result.reduction_report.reduced_ues > 0

    def test_manufacturer_restriction_runs(self):
        scenario = ScenarioConfig.small(seed=3)
        config = ExperimentConfig(
            rl_episodes=5, rl_hyperparam_trials=1, rl_hidden_sizes=(8,),
            rf_n_estimators=3, threshold_grid_size=3, include_myopic=False,
        )
        result = run_experiment(scenario, config.with_overrides(manufacturer=2))
        assert result.total_costs()["Never-mitigate"].n_ues >= 0

    def test_job_scaling_scales_ue_cost(self):
        scenario = ScenarioConfig.small(seed=5)
        config = ExperimentConfig(
            rl_episodes=3, rl_hyperparam_trials=1, rl_hidden_sizes=(8,),
            rf_n_estimators=3, threshold_grid_size=3,
            include_rl=False, include_myopic=False,
        )
        base = run_experiment(scenario, config)
        scaled = run_experiment(scenario, config.with_overrides(job_scaling_factor=3.0))
        never_base = base.total_costs()["Never-mitigate"].ue_cost
        never_scaled = scaled.total_costs()["Never-mitigate"].ue_cost
        assert never_scaled == pytest.approx(3.0 * never_base, rel=0.01)


class TestOnePointSweepView:
    """``run_experiment`` is the one-point ``run_sweep`` of its scenario."""

    SCENARIO = ScenarioConfig.small(seed=7).with_duration(45 * DAY)
    CONFIG = ExperimentConfig(
        rl_episodes=3,
        rl_hyperparam_trials=1,
        rl_hidden_sizes=(8,),
        rf_n_estimators=3,
        rf_max_depth=4,
        threshold_grid_size=3,
        include_myopic=False,
        charge_training_time=False,
    )

    @staticmethod
    def _scientific(result):
        payload = result.to_dict()
        payload["wallclock_seconds"] = 0.0
        return canonical_json(payload)

    @pytest.mark.parametrize(
        "overrides",
        [{"executor_kind": "serial"}, {"n_workers": 2}],
        ids=["serial", "n_workers=2"],
    )
    def test_matches_the_point_of_a_one_point_sweep(self, overrides):
        config = self.CONFIG.with_overrides(**overrides)
        result = run_experiment(self.SCENARIO, config, cache=PreparedDataCache())
        sweep = run_sweep(
            SweepSpec(base=self.SCENARIO), config, cache=PreparedDataCache()
        )
        (label,) = sweep.labels
        assert self._scientific(result) == self._scientific(sweep[label])
        assert result.executor_stats.task_seconds

    def test_without_a_cache_leaves_the_default_cache_alone(self):
        default = default_prepared_cache()
        calls, hits = default.prepare_calls, default.hits
        run_experiment(
            self.SCENARIO, self.CONFIG.with_overrides(executor_kind="serial")
        )
        assert (default.prepare_calls, default.hits) == (calls, hits)
