"""Tests for the static baseline policies."""

import numpy as np
import pytest

from repro.baselines.static import (
    AlwaysMitigatePolicy,
    NeverMitigatePolicy,
    OraclePolicy,
    PeriodicMitigatePolicy,
)
from repro.core.features import N_FEATURES
from repro.core.policies import DecisionContext


def _context(**kwargs):
    defaults = dict(time=0.0, node=0, features=np.zeros(N_FEATURES), ue_cost=1.0)
    defaults.update(kwargs)
    return DecisionContext(**defaults)


class TestNeverAlways:
    def test_never(self):
        policy = NeverMitigatePolicy()
        assert policy.decide(_context()) is False
        assert policy.decide(_context(ue_cost=1e9)) is False
        assert policy.name == "Never-mitigate"

    def test_always(self):
        policy = AlwaysMitigatePolicy()
        assert policy.decide(_context()) is True
        assert policy.name == "Always-mitigate"

    def test_zero_training_cost(self):
        assert NeverMitigatePolicy().training_cost_node_hours == 0.0
        assert AlwaysMitigatePolicy().training_cost_node_hours == 0.0


class TestOracle:
    def test_mitigates_only_on_flagged_events(self):
        policy = OraclePolicy()
        assert policy.decide(_context(is_last_event_before_ue=True)) is True
        assert policy.decide(_context(is_last_event_before_ue=False)) is False


class TestPeriodic:
    def test_first_event_triggers(self):
        policy = PeriodicMitigatePolicy(period_hours=24)
        assert policy.decide(_context(time=0.0)) is True

    def test_respects_period(self):
        policy = PeriodicMitigatePolicy(period_hours=1)
        assert policy.decide(_context(time=0.0)) is True
        assert policy.decide(_context(time=1800.0)) is False
        assert policy.decide(_context(time=3700.0)) is True

    def test_reset_clears_state(self):
        policy = PeriodicMitigatePolicy(period_hours=1)
        policy.decide(_context(time=0.0))
        policy.reset()
        assert policy.decide(_context(time=10.0)) is True

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            PeriodicMitigatePolicy(period_hours=0)

    @pytest.mark.parametrize("period", [-1.0, float("nan")])
    def test_rejects_negative_and_nan_period(self, period):
        with pytest.raises(ValueError, match="period_hours must be > 0"):
            PeriodicMitigatePolicy(period_hours=period)

    def test_name_includes_period(self):
        assert PeriodicMitigatePolicy(period_hours=6).name == "Periodic-6h"
