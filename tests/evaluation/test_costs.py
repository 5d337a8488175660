"""Tests for the node-hour cost accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.evaluation.costs import CostBreakdown


class TestCostBreakdown:
    def test_total(self):
        costs = CostBreakdown(ue_cost=10.0, mitigation_cost=2.0, training_cost=0.5)
        assert costs.total == pytest.approx(12.5)
        assert costs.overhead_cost == pytest.approx(2.5)

    def test_addition(self):
        a = CostBreakdown(ue_cost=1.0, mitigation_cost=2.0, n_ues=1, n_mitigations=3)
        b = CostBreakdown(ue_cost=4.0, training_cost=1.0, n_ues=2)
        total = a + b
        assert total.ue_cost == 5.0
        assert total.mitigation_cost == 2.0
        assert total.training_cost == 1.0
        assert total.n_ues == 3
        assert total.n_mitigations == 3

    def test_sum_builtin(self):
        parts = [CostBreakdown(ue_cost=1.0), CostBreakdown(ue_cost=2.0)]
        assert sum(parts).ue_cost == pytest.approx(3.0)

    def test_saving_vs_reference(self):
        never = CostBreakdown(ue_cost=100.0)
        rl = CostBreakdown(ue_cost=40.0, mitigation_cost=6.0)
        assert rl.saving_vs(never) == pytest.approx(0.54)

    def test_saving_vs_zero_reference(self):
        assert CostBreakdown().saving_vs(CostBreakdown()) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostBreakdown(ue_cost=-1.0)
        with pytest.raises(ValueError):
            CostBreakdown(n_ues=-1)

    @given(
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0, max_value=1e6),
    )
    def test_property_total_is_sum(self, ue, mitigation, training):
        costs = CostBreakdown(ue_cost=ue, mitigation_cost=mitigation, training_cost=training)
        assert costs.total == pytest.approx(ue + mitigation + training)
