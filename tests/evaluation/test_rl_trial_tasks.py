"""Tests for the per-trial RL task decomposition.

Four properties carry the feature:

* **Graph shape** — first-round hyperparameter trials fan out with no
  cross-trial dependencies; only trial 0 rides the warm-start chain
  (through the select-best reduce task, which keeps the old ``rl-{split}``
  key); ``key_prefix`` keeps two sweep points' trial tasks disjoint.  With
  ``rl_hyperparam_refine=0`` the graph is pinned by hash.
* **Two search rounds** — second-round trials depend only on the split's
  ``rl-search`` task and sample the space narrowed around the first
  round's winner.
* **Determinism** — the graph is *result-identical* serially and with
  workers: the per-trial settings are pre-drawn from one sequential keyed
  stream per split and round, so no trial depends on the schedule.
* **Accounting** — ``training_cost_node_hours`` is the sum of the per-trial
  modelled charges, independent of how the trials were scheduled.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import ScenarioConfig
from repro.core.hyperparams import HyperparameterSpace
from repro.evaluation.costs import training_charge_node_hours
from repro.evaluation.experiment import ExperimentConfig, run_experiment
from repro.evaluation.pipeline import (
    _CHAIN_PRIORITY,
    RLTrialResult,
    _rl_n_trials,
    _rl_trial_settings,
    _select_best_rl_trial,
    _train_one_rl_trial,
    build_split_tasks,
    make_splits,
    prepare_data,
    run_rl_search,
)
from repro.utils.timeutils import DAY

TRIAL_CONFIG = ExperimentConfig(
    rl_episodes=4,
    rl_hyperparam_trials=2,
    rl_hyperparam_refine=1,
    rl_hidden_sizes=(8,),
    rf_n_estimators=3,
    rf_max_depth=4,
    threshold_grid_size=4,
    charge_training_time=False,
)


#: Configs whose single-round (``rl_hyperparam_refine=0``) graphs are pinned.
REFINE0_CONFIGS = {
    "fast": ExperimentConfig.fast(),
    "default": ExperimentConfig(),
    "three-trials": ExperimentConfig(rl_hyperparam_trials=3),
    "no-warm-start": ExperimentConfig(rl_warm_start=False),
    "no-rl": ExperimentConfig(include_rl=False),
}
#: ``_graph_digest`` of each config's graph, without and with a
#: ``key_prefix``/``point``, recorded before the second search round was a
#: graph stage: a config without that round keeps its graph unchanged.
REFINE0_GRAPH_DIGESTS = {
    ("fast", False): "c28a62f8854f211c",
    ("fast", True): "5479ca0d0940ca62",
    ("default", False): "456f4f1d87d756aa",
    ("default", True): "99575672c2c115ed",
    ("three-trials", False): "26f2db819674bcf3",
    ("three-trials", True): "3017e9477540d46a",
    ("no-warm-start", False): "cfcb58258d5ee0cc",
    ("no-warm-start", True): "9175042c0777f8b0",
    ("no-rl", False): "7bc1d31ab48651d5",
    ("no-rl", True): "707ef8cb14a710b0",
}


class _AsRecorded:
    """A config rendered as the digests above saw it: with the diagnostic
    ``profile=False`` field, the last one, since retired from the config."""

    def __init__(self, config):
        self.text = repr(config)[:-1] + ", profile=False)"

    def __repr__(self):
        return self.text


def _digest_arg(arg):
    if callable(arg):
        return arg.__qualname__
    if isinstance(arg, ExperimentConfig):
        return _AsRecorded(arg)
    return arg


def _graph_digest(tasks):
    """Hash of every task's key, function, args, deps and priority."""
    rows = [
        (
            task.key,
            task.fn.__qualname__,
            tuple(_digest_arg(arg) for arg in task.args),
            task.deps,
            task.priority,
        )
        for task in tasks
    ]
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()[:16]


def _inside(value, bounds, rel=1e-12):
    """``value`` lies in ``bounds`` up to float rounding."""
    return bounds[0] * (1 - rel) <= value <= bounds[1] * (1 + rel)


@pytest.fixture(scope="module")
def tiny_scenario():
    return ScenarioConfig.small(seed=13).with_duration(60 * DAY)


@pytest.fixture(scope="module")
def tiny_prepared(tiny_scenario):
    return prepare_data(tiny_scenario, TRIAL_CONFIG)


class TestGraphShape:
    def test_trials_fan_out_without_cross_trial_deps(
        self, tiny_prepared, tiny_scenario
    ):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TRIAL_CONFIG)
        by_key = {task.key: task for task in tasks}
        n_trials = _rl_n_trials(TRIAL_CONFIG)
        assert n_trials == 3  # 2 search + 1 refine
        for split in splits:
            # First-round trials depend on nothing: they are scheduled the
            # moment a worker is free, whatever the chain is doing.
            assert by_key[f"rl-trial1-{split.index}"].deps == ()
            # The second round waits for the first round's winner only, so
            # it is shipped an index, never the first round's agents.
            refine = by_key[f"rl-trial2-{split.index}"]
            assert refine.deps == (f"rl-search-{split.index}",)
            assert refine.priority == _CHAIN_PRIORITY

    def test_reduce_carries_the_warm_start_edge(self, tiny_prepared, tiny_scenario):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TRIAL_CONFIG)
        by_key = {task.key: task for task in tasks}
        n_trials = _rl_n_trials(TRIAL_CONFIG)
        for split in splits:
            # The reduce selects over both rounds; the search task over the
            # first round only.
            reduce_task = by_key[f"rl-{split.index}"]
            assert set(reduce_task.deps) == {
                f"rl-trial{trial}-{split.index}" for trial in range(n_trials)
            }
            search = by_key[f"rl-search-{split.index}"]
            assert set(search.deps) == {
                f"rl-trial{trial}-{split.index}" for trial in range(2)
            }
            assert search.priority == _CHAIN_PRIORITY
            trial0 = by_key[f"rl-trial0-{split.index}"]
            if split.index == 0:
                assert trial0.deps == ()
            else:
                # The chain: base candidate <- previous split's reduce.
                assert trial0.deps == (f"rl-{split.index - 1}",)

    def test_chain_tasks_outrank_search_trials(self, tiny_prepared, tiny_scenario):
        splits = make_splits(tiny_scenario)
        tasks = build_split_tasks(tiny_prepared, splits, TRIAL_CONFIG)
        by_key = {task.key: task for task in tasks}
        assert by_key["rl-trial0-0"].priority > by_key["rl-trial1-0"].priority
        assert by_key["rl-0"].priority > by_key["rl-trial1-0"].priority
        assert by_key["rf-0"].priority == 0
        # rf-0 depends exactly on its forest fit, which outranks ordinary
        # tasks (it unblocks every sharing point's rf task) but not the chain.
        (forest_key,) = by_key["rf-0"].deps
        assert forest_key.startswith("forest-") and forest_key.endswith("-0")
        assert 0 < by_key[forest_key].priority < by_key["rl-0"].priority

    def test_key_prefix_keeps_two_points_disjoint(
        self, tiny_prepared, tiny_scenario
    ):
        splits = make_splits(tiny_scenario)
        point_a = build_split_tasks(
            tiny_prepared, splits, TRIAL_CONFIG, key_prefix="cost=2/"
        )
        point_b = build_split_tasks(
            tiny_prepared, splits, TRIAL_CONFIG, key_prefix="cost=5/"
        )
        keys_a = {task.key for task in point_a}
        keys_b = {task.key for task in point_b}
        # Only the content-keyed forest fits (outside the prefix) are
        # shared: one per split.  Every other key is the point's own.
        shared = keys_a & keys_b
        assert shared == {key for key in keys_a if key.startswith("forest-")}
        assert len(shared) == len(splits)
        assert all(key.startswith("cost=2/") for key in keys_a - shared)
        # Dependency edges stay inside their own point.
        for task in point_a:
            assert all(dep in keys_a for dep in task.deps)

    def test_fan_out_requires_the_builtin_rl_approach(
        self, tiny_prepared, tiny_scenario
    ):
        # Without the built-in RL approach, a custom approach in the "rl"
        # group gets an ordinary group task: no trials to train an agent
        # nobody is handed, and no chain edge between splits.
        from repro.core.policies import CallablePolicy
        from repro.evaluation.registry import (
            ApproachSpec,
            register_approach,
            unregister_approach,
        )

        register_approach(ApproachSpec(
            name="Cheap-RL-variant",
            build=lambda ctx, cfg, rng: CallablePolicy(
                lambda context: False, name="Cheap-RL-variant"
            ),
            group="rl",
        ))
        try:
            config = TRIAL_CONFIG.with_overrides(include_rl=False)
            splits = make_splits(tiny_scenario)
            tasks = build_split_tasks(tiny_prepared, splits, config)
        finally:
            unregister_approach("Cheap-RL-variant")
        keys = {task.key for task in tasks}
        assert f"rl-{splits[0].index}" in keys
        assert not any("rl-trial" in key for key in keys)
        rl_tasks = [task for task in tasks if task.key.startswith("rl-")]
        assert all(task.deps == () and task.priority == 0 for task in rl_tasks)


class TestRefineZeroGraph:
    @pytest.mark.parametrize("name,in_point", sorted(REFINE0_GRAPH_DIGESTS))
    def test_graph_matches_the_single_round_recording(
        self, tiny_prepared, tiny_scenario, name, in_point
    ):
        kwargs = {"key_prefix": "p/", "point": "p"} if in_point else {}
        tasks = build_split_tasks(
            tiny_prepared, make_splits(tiny_scenario), REFINE0_CONFIGS[name], **kwargs
        )
        assert _graph_digest(tasks) == REFINE0_GRAPH_DIGESTS[name, in_point]


class TestSecondRound:
    @pytest.mark.parametrize("winner", [0, 1], ids=["base-winner", "sampled-winner"])
    def test_trials_sample_the_space_narrowed_around_the_winner(
        self, monkeypatch, tiny_prepared, tiny_scenario, winner
    ):
        import repro.evaluation.pipeline as pipeline_mod

        trained = []
        monkeypatch.setattr(
            pipeline_mod, "train_agent",
            lambda env, agent, n_episodes: trained.append(agent.config),
        )
        config = TRIAL_CONFIG.with_overrides(rl_hyperparam_refine=4)
        split = make_splits(tiny_scenario)[-1]  # most history: every trial trains
        tasks = {
            task.key: task
            for task in build_split_tasks(tiny_prepared, [split], config)
        }
        for trial in range(2, 6):
            task = tasks[f"rl-trial{trial}-{split.index}"]
            task.fn({f"rl-search-{split.index}": winner}, tiny_prepared, *task.args)
        assert len(trained) == 4

        # The winner's values are read off its DQNConfig: for trial 0 those
        # of the base configuration.
        best = _rl_trial_settings(tiny_scenario, config, split.index)[winner][0]
        if winner == 0:
            assert best.learning_rate == config.rl_base_config.learning_rate
            assert best.gamma == config.rl_base_config.gamma
        full = HyperparameterSpace()
        narrowed = full.narrowed_around(
            {"learning_rate": best.learning_rate, "gamma": best.gamma}
        )
        assert _inside(best.learning_rate, narrowed.learning_rate)
        assert (narrowed.learning_rate[1] / narrowed.learning_rate[0]
                < full.learning_rate[1] / full.learning_rate[0])
        for dqn_config in trained:
            assert _inside(dqn_config.learning_rate, narrowed.learning_rate)
            assert _inside(1.0 - dqn_config.gamma, narrowed.gamma_complement)

    def test_search_task_returns_the_first_round_winner(self, tiny_scenario):
        split = make_splits(tiny_scenario)[0]

        def results(scores, trained=True):
            return {
                f"rl-trial{trial}": RLTrialResult(
                    split.index, trial=trial, score=score, state=None,
                    training_cost=0.0, trained=trained,
                )
                for trial, score in scores
            }

        # Arrival order does not matter, and a tie goes to the lower index.
        winner = run_rl_search(
            results([(2, -1.0), (0, -2.0), (1, -1.0)]), None, split, TRIAL_CONFIG
        )
        assert winner == 1
        # No trial trained: the base candidate stands in.
        untrained = results([(0, 0.0), (1, 0.0)], trained=False)
        assert run_rl_search(untrained, None, split, TRIAL_CONFIG) == 0


class TestTrialSettings:
    def test_settings_are_stable_and_per_trial_distinct(self, tiny_scenario):
        first = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=2)
        second = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=2)
        assert first == second  # pure function of (scenario, config, split)
        assert len(first) == _rl_n_trials(TRIAL_CONFIG)
        # Trial 0 is the unchanged base configuration; later trials sample.
        base = TRIAL_CONFIG.rl_base_config
        assert first[0][0].learning_rate == base.learning_rate
        assert first[1][0].learning_rate != base.learning_rate
        seeds = {config.seed for config, _ in first}
        assert len(seeds) == len(first)

    def test_settings_differ_across_splits(self, tiny_scenario):
        a = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=0)
        b = _rl_trial_settings(tiny_scenario, TRIAL_CONFIG, split_index=1)
        assert a != b


class TestDeterminism:
    """The decomposition may change the schedule, never the numbers."""

    @pytest.fixture(scope="class")
    def fan_serial(self, tiny_scenario):
        return run_experiment(tiny_scenario, TRIAL_CONFIG)

    def _assert_identical(self, a, b):
        assert a.approach_names == b.approach_names
        for name in a.approach_names:
            for left, right in zip(
                a.approaches[name].per_split, b.approaches[name].per_split
            ):
                assert left.costs == right.costs, name
                assert left.confusion == right.confusion, name

    def test_two_workers_equal_serial_fan(self, tiny_scenario, fan_serial):
        parallel = run_experiment(
            tiny_scenario, TRIAL_CONFIG.with_overrides(n_workers=2)
        )
        self._assert_identical(parallel, fan_serial)

    def test_two_threads_equal_serial_fan(self, tiny_scenario, fan_serial):
        threaded = run_experiment(
            tiny_scenario,
            TRIAL_CONFIG.with_overrides(n_workers=2, executor_kind="thread"),
        )
        self._assert_identical(threaded, fan_serial)


class TestTrainingCostAccounting:
    """The RL training cost is the modelled charge of each trial's own
    gradient updates and environment steps, summed over the split's trials
    in trial order, so no schedule can change it."""

    @pytest.fixture()
    def fixed_work(self, monkeypatch):
        import repro.evaluation.pipeline as pipeline_mod

        def fake_train_agent(env, agent, n_episodes):
            agent.env_steps, agent.train_steps = 1000, 400

        monkeypatch.setattr(pipeline_mod, "train_agent", fake_train_agent)

    def test_cost_is_the_sum_of_modelled_trial_charges(
        self, fixed_work, tiny_prepared, tiny_scenario
    ):
        split = make_splits(tiny_scenario)[-1]
        first_round = {
            f"rl-trial{trial}": _train_one_rl_trial(
                tiny_prepared, split, trial, TRIAL_CONFIG, None
            )
            for trial in range(2)
        }
        winner = run_rl_search(first_round, tiny_prepared, split, TRIAL_CONFIG)
        refine = _train_one_rl_trial(
            tiny_prepared, split, 2, TRIAL_CONFIG, None, winner
        )
        agent, cost_hours, state = _select_best_rl_trial(
            TRIAL_CONFIG, [*first_round.values(), refine]
        )
        assert agent is not None and state is not None
        per_trial = training_charge_node_hours(
            train_steps=400, env_steps=1000, n_parameters=agent.online.params.size
        )
        assert per_trial > 0.0
        assert all(
            result.training_cost == per_trial
            for result in [*first_round.values(), refine]
        )
        assert cost_hours == per_trial + per_trial + per_trial

    def test_reduce_sums_trial_costs_from_any_schedule(self, monkeypatch):
        import repro.evaluation.pipeline as pipeline_mod

        trials = [
            RLTrialResult(0, trial=t, score=float(-t), state={"hidden_0_w": None},
                          training_cost=1.0, trained=True)
            for t in (2, 0, 1)  # arrival order must not matter
        ]
        chosen = {}

        def fake_agent_from_state(config, state):
            chosen["state"] = state
            return object()

        monkeypatch.setattr(pipeline_mod, "_agent_from_state", fake_agent_from_state)
        agent, cost_hours, state = _select_best_rl_trial(TRIAL_CONFIG, trials)
        assert cost_hours == 3.0
        # Highest score wins (trial 0 scored 0.0, the others negative).
        assert state is chosen["state"]
        assert trials[1].trial == 0 and state is trials[1].state
