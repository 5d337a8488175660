"""Tests for the staged pipeline and its parallel execution.

The determinism test is the load-bearing one: the parallel executor must
produce an :class:`ExperimentResult` identical to the serial run, which holds
because every (split × approach-group) task seeds its own random streams
from stable string keys.  (The golden harness covers the same identity
with the modelled training charge on.)
"""

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.evaluation.cross_validation import TimeSeriesNestedCV
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.evaluation.pipeline import (
    PreparedData,
    _rl_n_trials,
    build_split_tasks,
    execute_split_tasks,
    make_splits,
    prepare_data,
    run_forest_fit,
    run_rl_reduce,
    run_rl_trial,
    run_split_group,
)
from repro.evaluation.registry import enabled_specs
from repro.utils.timeutils import DAY

TINY_CONFIG = ExperimentConfig(
    rl_episodes=4,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(8,),
    rf_n_estimators=3,
    rf_max_depth=4,
    threshold_grid_size=4,
    charge_training_time=False,
)


@pytest.fixture(scope="module")
def tiny_scenario():
    """Two simulated months: every stage runs, nothing takes long."""
    return ScenarioConfig.small(seed=13).with_duration(60 * DAY)


@pytest.fixture(scope="module")
def tiny_prepared(tiny_scenario):
    return prepare_data(tiny_scenario, TINY_CONFIG)


class TestConfigValidation:
    """A bad ExperimentConfig value fails when the config is built."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"rl_episodes": -3}, "rl_episodes"),
            ({"rl_episodes": 0}, "rl_episodes"),
            ({"rf_n_estimators": 0}, "rf_n_estimators"),
            ({"rf_max_depth": 0}, "rf_max_depth"),
            ({"rf_max_depth": -1}, "rf_max_depth"),
            ({"threshold_grid_size": 0}, "threshold_grid_size"),
            ({"threshold_grid_size": -1}, "threshold_grid_size"),
            ({"executor_kind": "gpu"}, "executor_kind"),
            ({"rl_hidden_sizes": (0,)}, "rl_hidden_sizes"),
            ({"rl_hidden_sizes": (8, -1)}, "rl_hidden_sizes"),
            ({"rl_hidden_sizes": (0.5,)}, "rl_hidden_sizes"),
            ({"rl_hidden_sizes": ()}, "rl_hidden_sizes"),
            ({"n_workers": -2}, "n_workers"),
            ({"rl_hyperparam_trials": -3}, "rl_hyperparam_trials"),
            ({"rl_hyperparam_refine": -1}, "rl_hyperparam_refine"),
        ],
    )
    def test_bad_values_are_rejected(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig().with_overrides(**overrides)

    def test_serial_fallbacks_stay_accepted(self):
        # n_workers <= 1 runs serially; zero trials are read as one.
        ExperimentConfig(n_workers=0, rl_hyperparam_trials=0, rl_hyperparam_refine=0)


class TestStages:
    def test_prepare_data_outputs(self, tiny_prepared, tiny_scenario):
        assert isinstance(tiny_prepared, PreparedData)
        assert tiny_prepared.scenario is tiny_scenario
        assert len(tiny_prepared.tracks) > 0
        assert tiny_prepared.reduction_report is not None

    def test_make_splits_matches_cv_layout(self, tiny_scenario):
        splits = make_splits(tiny_scenario)
        cfg = tiny_scenario.evaluation
        expected = TimeSeriesNestedCV(
            n_parts=cfg.cv_parts,
            train_fraction=cfg.cv_train_fraction,
            bootstrap_seconds=cfg.cv_bootstrap_seconds,
        ).splits(0.0, tiny_scenario.duration_seconds)
        assert splits == expected

    def test_split_tasks_cover_enabled_approaches(
        self, tiny_prepared, tiny_scenario
    ):
        # Every group's task on the split with the most history: together
        # they evaluate exactly the enabled approaches, and the "rf" and
        # "rl" tasks return the models their dependencies trained.
        split = make_splits(tiny_scenario)[-1]
        data, config = tiny_prepared, TINY_CONFIG
        forest = {"forest": run_forest_fit({}, data, split, config)}
        trials = {
            f"rl-trial{trial}": run_rl_trial({}, data, split, trial, config)
            for trial in range(_rl_n_trials(config))
        }
        outcomes = [
            run_split_group({}, data, split, "static", config),
            run_split_group(forest, data, split, "rf", config),
            run_rl_reduce(trials, data, split, config),
            run_split_group({}, data, split, "oracle", config),
        ]
        evaluations = {
            name: evaluation
            for outcome in outcomes
            for name, evaluation in outcome.evaluations.items()
        }
        assert list(evaluations) == [spec.name for spec in enabled_specs(TINY_CONFIG)]
        assert outcomes[1].sc20_policy is not None
        assert outcomes[2].rl_policy is not None
        assert all(outcome.n_test_events > 0 for outcome in outcomes)
        for name, evaluation in evaluations.items():
            assert evaluation.policy_name == name

    def test_rl_state_carries_between_splits(
        self, tiny_prepared, tiny_scenario, monkeypatch
    ):
        # The warm-start chain of the task graph: split 1's base candidate
        # loads exactly the state split 0's reduce selected.
        import repro.evaluation.pipeline as pipeline_mod

        loaded = {}
        original = pipeline_mod._train_one_rl_trial

        def recording(prepared, split, trial, config, previous_state):
            loaded[(split.index, trial)] = previous_state
            return original(prepared, split, trial, config, previous_state)

        monkeypatch.setattr(pipeline_mod, "_train_one_rl_trial", recording)
        config = TINY_CONFIG.with_overrides(executor_kind="serial")
        splits = make_splits(tiny_scenario)[:2]
        outcomes = execute_split_tasks(
            build_split_tasks(tiny_prepared, splits, config), config, tiny_prepared
        )
        carried = outcomes["rl-0"].rl_state
        assert isinstance(carried, dict)
        assert loaded[(0, 0)] is None
        assert loaded[(1, 0)] is carried

    def test_build_split_tasks_one_per_group_and_rl_chain(
        self, tiny_prepared, tiny_scenario
    ):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TINY_CONFIG)
        # 4 groups (static, rf, rl, oracle) x n splits, plus the one trial
        # task TINY_CONFIG's single RL trial adds per split and the split's
        # forest fit.
        assert len(tasks) == 6 * len(splits)
        by_key = {task.key: task for task in tasks}
        # Warm start is on by default: RL tasks form a chain...
        assert by_key["rl-trial0-1"].deps == ("rl-0",)
        # ...the rf group depends exactly on its split's forest fit...
        (forest_key,) = by_key["rf-1"].deps
        assert forest_key.startswith("forest-") and forest_key.endswith("-1")
        assert by_key[forest_key].deps == ()
        # ...and everything else is independent.
        assert by_key["static-3"].deps == ()

    def test_build_split_tasks_default_fans_out_rl_trials(
        self, tiny_prepared, tiny_scenario
    ):
        # The default shape: one task per trial plus a select-best reduce
        # for the "rl" group, single tasks for every other group.  TINY_CONFIG
        # runs one trial per split, so each split gains exactly one extra task.
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TINY_CONFIG)
        assert len(tasks) == 6 * len(splits)
        by_key = {task.key: task for task in tasks}
        # The reduce keeps the old chain key and carries the warm-start edge
        # to the next split's base candidate.
        assert by_key["rl-0"].deps == ("rl-trial0-0",)
        assert by_key["rl-trial0-1"].deps == ("rl-0",)
        (forest_key,) = by_key["rf-1"].deps
        assert forest_key.startswith("forest-") and forest_key.endswith("-1")

    def test_group_tag_alone_does_not_trigger_training(
        self, tiny_prepared, tiny_scenario, monkeypatch
    ):
        # A custom approach sharing the "rl" group must not pay for the
        # DDDQN search when the RL approach itself is disabled.
        import repro.evaluation.pipeline as pipeline_mod
        from repro.core.policies import CallablePolicy
        from repro.evaluation.registry import (
            ApproachSpec,
            register_approach,
            unregister_approach,
        )

        def _exploding_rl_training(*args, **kwargs):
            raise AssertionError("RL training ran despite include_rl=False")

        monkeypatch.setattr(pipeline_mod, "train_agent", _exploding_rl_training)
        register_approach(ApproachSpec(
            name="Cheap-RL-variant",
            build=lambda ctx, cfg, rng: CallablePolicy(
                lambda context: False, name="Cheap-RL-variant"
            ),
            group="rl",
        ))
        try:
            config = TINY_CONFIG.with_overrides(include_rl=False)
            split = make_splits(tiny_scenario)[-1]
            outcome = pipeline_mod.run_split_group(
                {}, tiny_prepared, split, "rl", config
            )
        finally:
            unregister_approach("Cheap-RL-variant")
        assert list(outcome.evaluations) == ["Cheap-RL-variant"]
        assert outcome.rl_policy is None

    def test_custom_group_gets_no_model_and_trains_none(
        self, tiny_prepared, tiny_scenario, monkeypatch
    ):
        # The group names the model a builder receives: outside "rf" and
        # "rl", ctx.sc20() / ctx.rl() are None, and asking fits nothing.
        from repro.baselines.random_forest import RandomForestClassifier
        from repro.core.policies import CallablePolicy
        from repro.evaluation.registry import (
            ApproachSpec,
            register_approach,
            unregister_approach,
        )

        fits = []
        original_fit = RandomForestClassifier.fit

        def counting_fit(self, *args, **kwargs):
            fits.append(self)
            return original_fit(self, *args, **kwargs)

        monkeypatch.setattr(RandomForestClassifier, "fit", counting_fit)
        seen = {}

        def build(ctx, cfg, rng):
            seen["sc20"], seen["rl"] = ctx.sc20(), ctx.rl()
            return CallablePolicy(lambda context: False, name="Model-reader")

        register_approach(ApproachSpec(name="Model-reader", build=build))
        try:
            split = make_splits(tiny_scenario)[-1]
            outcome = run_split_group({}, tiny_prepared, split, "custom", TINY_CONFIG)
        finally:
            unregister_approach("Model-reader")
        assert seen == {"sc20": None, "rl": None}
        assert fits == []
        assert list(outcome.evaluations) == ["Model-reader"]
        assert outcome.sc20_policy is None and outcome.rl_policy is None

    def test_build_split_tasks_without_rf_family(self, tiny_prepared, tiny_scenario):
        # Regression: include_rf=False used to crash in ensure_sc20_variants,
        # which mistook the disabled default variants for name collisions.
        splits = make_splits(tiny_scenario)
        config = TINY_CONFIG.with_overrides(include_rf=False)
        tasks = build_split_tasks(tiny_prepared, splits, config)
        # static, rl trial + reduce, oracle
        assert len(tasks) == 4 * len(splits)
        assert not any(task.key.startswith(("rf-", "forest-")) for task in tasks)

    def test_run_experiment_without_rf_family(self, tiny_scenario):
        config = TINY_CONFIG.with_overrides(include_rf=False, include_rl=False)
        result = run_experiment(tiny_scenario, config)
        assert result.approach_names == ["Never-mitigate", "Always-mitigate", "Oracle"]

    def test_rl_chain_released_without_warm_start(self, tiny_prepared, tiny_scenario):
        splits = make_splits(tiny_scenario)
        config = TINY_CONFIG.with_overrides(rl_warm_start=False)
        tasks = build_split_tasks(tiny_prepared, splits, config)
        # The chain runs through each split's base candidate (trial 0).
        rl_deps = [task.deps for task in tasks if task.key.startswith("rl-trial0-")]
        # Either fully independent (all splits have training data) or fully
        # chained (some split must pass the previous agent through).
        assert all(deps == () for deps in rl_deps) or all(
            deps != () for deps in rl_deps[1:]
        )


class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self, tiny_scenario):
        return run_experiment(tiny_scenario, TINY_CONFIG)

    @pytest.fixture(scope="class")
    def parallel_result(self, tiny_scenario):
        return run_experiment(
            tiny_scenario, TINY_CONFIG.with_overrides(n_workers=4)
        )

    def test_parallel_equals_serial(self, serial_result, parallel_result):
        assert serial_result.approach_names == parallel_result.approach_names
        assert serial_result.n_test_events == parallel_result.n_test_events
        assert serial_result.splits == parallel_result.splits
        for name in serial_result.approach_names:
            serial_approach = serial_result.approaches[name]
            parallel_approach = parallel_result.approaches[name]
            assert len(serial_approach.per_split) == len(parallel_approach.per_split)
            for a, b in zip(serial_approach.per_split, parallel_approach.per_split):
                assert a.costs == b.costs, name
                assert a.confusion == b.confusion, name
                assert a.n_traces == b.n_traces, name
                assert a.n_decision_points == b.n_decision_points, name

    def test_parallel_final_artifacts_match(self, serial_result, parallel_result):
        assert np.array_equal(
            serial_result.final_test_features, parallel_result.final_test_features
        )
        if serial_result.final_rl_policy is not None:
            assert parallel_result.final_rl_policy is not None
            serial_state = serial_result.final_rl_policy.agent.state_dict()
            parallel_state = parallel_result.final_rl_policy.agent.state_dict()
            assert serial_state.keys() == parallel_state.keys()
            for key in serial_state:
                assert np.array_equal(serial_state[key], parallel_state[key]), key

    def test_all_approaches_cover_all_splits(self, serial_result):
        for approach in serial_result.approaches.values():
            assert len(approach.per_split) == len(serial_result.splits)
