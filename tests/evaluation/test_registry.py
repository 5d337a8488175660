"""Tests for the pluggable approach registry."""

import pytest

from repro.core.features import StateNormalizer
from repro.core.policies import (
    CallablePolicy,
    FallbackPolicy,
    MitigationPolicy,
    RLPolicy,
)
from repro.evaluation.experiment import APPROACH_ORDER, ExperimentConfig
from repro.evaluation.pipeline import (
    PreparedData,
    SplitContext,
    _rl_n_trials,
    _select_best_rl_trial,
    _train_one_rl_trial,
    fit_split_forest,
    make_splits,
    prepared_data_key,
)
from repro.evaluation.registry import (
    ApproachSpec,
    approach_groups,
    approach_order,
    approach_specs,
    enabled_specs,
    ensure_sc20_variants,
    get_approach,
    register_approach,
    registered_names,
    unregister_approach,
)

EXPECTED_NAMES = (
    "Never-mitigate",
    "Always-mitigate",
    "SC20-RF",
    "SC20-RF-2%",
    "SC20-RF-5%",
    "Myopic-RF",
    "RL",
    "Oracle",
)

# The full registry also carries default-off approaches (Fleet-mix sits
# between Myopic-RF and RL, enabled via ``include_fleet_mix``).
ALL_NAMES = EXPECTED_NAMES[:6] + ("Fleet-mix",) + EXPECTED_NAMES[6:]


class TestDefaultRegistrations:
    def test_all_approaches_registered_in_order(self):
        assert approach_order() == ALL_NAMES
        assert APPROACH_ORDER == ALL_NAMES

    def test_specs_carry_groups(self):
        groups = {spec.name: spec.group for spec in approach_specs()}
        assert groups["Never-mitigate"] == "static"
        assert groups["Always-mitigate"] == "static"
        assert groups["SC20-RF"] == groups["SC20-RF-2%"] == groups["Myopic-RF"] == "rf"
        assert groups["RL"] == "rl"
        assert groups["Oracle"] == "oracle"

    def test_get_approach(self):
        assert get_approach("RL").name == "RL"
        with pytest.raises(KeyError):
            get_approach("nope")

    def test_enabled_specs_follow_config_toggles(self):
        config = ExperimentConfig()
        assert tuple(s.name for s in enabled_specs(config)) == EXPECTED_NAMES

        no_rl = config.with_overrides(include_rl=False)
        assert "RL" not in {s.name for s in enabled_specs(no_rl)}

        no_rf = config.with_overrides(include_rf=False)
        names = {s.name for s in enabled_specs(no_rf)}
        assert not names & {"SC20-RF", "SC20-RF-2%", "SC20-RF-5%", "Myopic-RF"}

        no_myopic = config.with_overrides(include_myopic=False)
        names = {s.name for s in enabled_specs(no_myopic)}
        assert "Myopic-RF" not in names and "SC20-RF" in names

        offsets = config.with_overrides(sc20_threshold_offsets=(0.02,))
        names = {s.name for s in enabled_specs(offsets)}
        assert "SC20-RF-2%" in names and "SC20-RF-5%" not in names

    def test_approach_groups_cover_enabled_specs(self):
        config = ExperimentConfig()
        groups = approach_groups(config)
        assert list(groups) == ["static", "rf", "rl", "oracle"]
        flattened = [spec.name for specs in groups.values() for spec in specs]
        assert sorted(flattened) == sorted(EXPECTED_NAMES)


class TestRegistration:
    def test_register_and_unregister_custom_approach(self):
        spec = ApproachSpec(
            name="Test-custom",
            build=lambda ctx, config, factory: CallablePolicy(
                lambda context: False, name="Test-custom"
            ),
            order=65,  # between RL and Oracle
        )
        register_approach(spec)
        try:
            assert "Test-custom" in registered_names()
            order = approach_order()
            assert order.index("RL") < order.index("Test-custom") < order.index("Oracle")
        finally:
            unregister_approach("Test-custom")
        assert "Test-custom" not in registered_names()

    def test_duplicate_registration_raises_unless_replaced(self):
        spec = get_approach("Oracle")
        with pytest.raises(ValueError):
            register_approach(spec)
        register_approach(spec, replace=True)  # idempotent overwrite
        assert get_approach("Oracle") is spec

    def test_colliding_offset_names_raise_instead_of_silently_dropping(self):
        # 0.049 percent-rounds to "SC20-RF-5%", already taken by 0.05.
        config = ExperimentConfig(sc20_threshold_offsets=(0.049,))
        with pytest.raises(ValueError, match="SC20-RF-5%"):
            ensure_sc20_variants(config)

    def test_disabled_default_variants_are_not_collisions(self):
        # Regression: include_rf=False disables the default variants, which
        # must read as "this offset's variant already exists", not as a name
        # collision (ensure_sc20_variants used to consult spec.enabled, which
        # folds in the include_rf toggle).
        config = ExperimentConfig(include_rf=False)
        ensure_sc20_variants(config)  # must not raise
        names = {s.name for s in enabled_specs(config)}
        assert not names & {"SC20-RF", "SC20-RF-2%", "SC20-RF-5%", "Myopic-RF"}

    def test_offset_colliding_with_non_variant_approach_raises(self):
        # A name squatted by a custom (non-variant) approach is a genuine
        # collision even though no variant offset is recorded for it.
        from repro.baselines.sc20 import SC20RandomForestPolicy

        name = SC20RandomForestPolicy.variant_name(0.07)
        register_approach(ApproachSpec(
            name=name,
            build=lambda ctx, config, factory: CallablePolicy(
                lambda context: False, name=name
            ),
        ))
        try:
            config = ExperimentConfig(sc20_threshold_offsets=(0.07,))
            with pytest.raises(ValueError, match="SC20-RF-7%"):
                ensure_sc20_variants(config)
        finally:
            unregister_approach(name)

    def test_custom_threshold_offsets_auto_register_variants(self):
        # A non-default offset sweep must still produce its SC20-RF-N% bar
        # (the old monolith built one per configured offset).
        config = ExperimentConfig(sc20_threshold_offsets=(0.02, 0.1))
        ensure_sc20_variants(config)
        try:
            names = [s.name for s in enabled_specs(config)]
            assert "SC20-RF-10%" in names
            assert "SC20-RF-5%" not in names  # not configured -> disabled
            order = approach_order()
            assert (
                order.index("SC20-RF")
                < order.index("SC20-RF-10%")
                < order.index("Myopic-RF")
            )
        finally:
            unregister_approach("SC20-RF-10%")


@pytest.fixture(scope="module")
def build_config():
    """Cheapest config that still exercises every builder."""
    return ExperimentConfig(
        rl_episodes=2,
        rl_hyperparam_trials=1,
        rl_hidden_sizes=(8,),
        rf_n_estimators=3,
        rf_max_depth=4,
        threshold_grid_size=3,
        charge_training_time=False,
    )


class TestBuilderRoundTrip:
    def test_every_registered_approach_builds_a_working_policy(
        self, scenario, raw_error_log, feature_tracks, job_sampler,
        reduction_report, build_config,
    ):
        # The fixtures are ingested logs to the pipeline: key them as such.
        prepared = PreparedData(
            scenario=scenario,
            tracks=feature_tracks,
            sampler=job_sampler,
            reduction_report=reduction_report,
            data_key=prepared_data_key(
                scenario, build_config, raw_error_log, job_sampler.job_log
            ),
        )
        split = make_splits(scenario)[-1]  # most history: every model trains
        # The models the executor tasks would hand in: the split's forest
        # fit and the RL search's selected agent.
        forest = fit_split_forest(prepared, split, build_config)
        trials = [
            _train_one_rl_trial(prepared, split, trial, build_config, None)
            for trial in range(_rl_n_trials(build_config))
        ]
        agent, cost, state = _select_best_rl_trial(build_config, trials)
        assert forest is not None and agent is not None
        rl = RLPolicy(agent, StateNormalizer(), training_cost_node_hours=cost)
        ctx = SplitContext(
            prepared, split, build_config, forest=forest, rl=rl, rl_state=state
        )
        trained = {"SC20-RF", "SC20-RF-2%", "SC20-RF-5%", "Myopic-RF", "RL"}
        assert trained <= {spec.name for spec in enabled_specs(build_config)}
        for spec in enabled_specs(build_config):
            policy = spec.build(ctx, build_config, ctx.factory)
            assert isinstance(policy, MitigationPolicy), spec.name
            assert policy.name == spec.name
            if spec.name in trained:
                assert not isinstance(policy, FallbackPolicy), spec.name
            evaluation = ctx.evaluate(policy)
            assert evaluation.policy_name == spec.name
            assert evaluation.costs.total >= 0.0
