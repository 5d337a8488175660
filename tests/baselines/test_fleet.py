"""SegmentedFleetPolicy: per-segment routing over a heterogeneous fleet."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.fleet import (
    DEFAULT_SEGMENT_POLICY,
    SEGMENT_POLICY_NAMES,
    SegmentedFleetPolicy,
    build_fleet_policy,
)
from repro.baselines.static import AlwaysMitigatePolicy, NeverMitigatePolicy
from repro.config import ScenarioConfig
from repro.core.policies import CallablePolicy, DecisionContext, FallbackPolicy
from repro.evaluation.runner import EvaluationTrace
from repro.telemetry.topology import ClusterTopology, FleetSegment


def _topology() -> ClusterTopology:
    return ClusterTopology(
        n_nodes=8,
        dimms_per_node=2,
        manufacturer_shares=(0.5, 0.5),
        segments=(
            FleetSegment(name="hot", n_nodes=4, manufacturer=0, policy="always"),
            FleetSegment(name="cold", n_nodes=4, manufacturer=1, policy="never"),
        ),
    )


def _context(node: int) -> DecisionContext:
    return DecisionContext(
        time=0.0,
        node=node,
        features=np.zeros(4),
        ue_cost=1.0,
    )


def _trace(node: int, n_events: int) -> EvaluationTrace:
    """A replay trace stub: routing reads only its node and length."""
    return EvaluationTrace(
        node=node,
        times=np.arange(n_events, dtype=float),
        features=np.zeros((n_events, 4)),
        is_ue=np.zeros(n_events, dtype=bool),
        is_last_before_ue=np.zeros(n_events, dtype=bool),
        timeline=None,
    )


class TestRouting:
    def test_decide_routes_by_node(self):
        policy = SegmentedFleetPolicy(
            _topology(), [AlwaysMitigatePolicy(), NeverMitigatePolicy()]
        )
        assert policy.decide(_context(0)) is True
        assert policy.decide(_context(3)) is True
        assert policy.decide(_context(4)) is False
        assert policy.decide(_context(7)) is False

    def test_out_of_range_node_rejected(self):
        policy = SegmentedFleetPolicy(
            _topology(), [AlwaysMitigatePolicy(), NeverMitigatePolicy()]
        )
        with pytest.raises(ValueError):
            policy.decide(_context(8))

    def test_decide_nodes_partitions_by_segment(self):
        policy = SegmentedFleetPolicy(
            _topology(), [AlwaysMitigatePolicy(), NeverMitigatePolicy()]
        )
        nodes = np.array([0, 5, 2, 7, 4])
        out = policy.decide_nodes(
            np.zeros((5, 4)), np.ones(5), times=np.zeros(5), nodes=nodes
        )
        np.testing.assert_array_equal(
            out, np.array([True, False, True, False, False])
        )

    def test_decide_nodes_requires_node_ids(self):
        policy = SegmentedFleetPolicy(
            _topology(), [AlwaysMitigatePolicy(), NeverMitigatePolicy()]
        )
        with pytest.raises(ValueError, match="nodes"):
            policy.decide_nodes(np.zeros((2, 4)), np.ones(2))

    def test_decide_rows_routes_rows_by_segment(self):
        policy = SegmentedFleetPolicy(
            _topology(), [AlwaysMitigatePolicy(), NeverMitigatePolicy()]
        )
        # Panel rows 0-2: hot node 1; rows 3-4: cold node 6; row 5: hot node 2.
        policy.prepare_traces([_trace(1, 3), _trace(6, 2), _trace(2, 1)])
        out = policy.decide_rows(np.array([5, 0, 3, 4, 1]), np.ones(5))
        np.testing.assert_array_equal(
            out, np.array([True, True, False, False, True])
        )
        policy.prepare_traces(())
        assert policy.decide_rows(np.array([0]), np.ones(1)) is None

    def test_decide_rows_declines_with_a_declining_sub_policy(self):
        policy = SegmentedFleetPolicy(
            _topology(),
            [AlwaysMitigatePolicy(), CallablePolicy(lambda ctx: False)],
        )
        policy.prepare_traces([_trace(1, 2), _trace(6, 2)])
        assert policy.decide_rows(np.arange(4), np.ones(4)) is None
        # Rows of the batch-capable segment alone are still answered.
        assert policy.decide_rows(np.arange(2), np.ones(2)).all()

    @pytest.mark.parametrize("node", [-1, 8])
    def test_out_of_range_node_rejected_by_every_entry_point(self, node):
        policy = SegmentedFleetPolicy(
            _topology(), [AlwaysMitigatePolicy(), NeverMitigatePolicy()]
        )
        message = rf"node {node} outside the topology \[0, 8\)"
        with pytest.raises(ValueError, match=message):
            policy.decide(_context(node))
        with pytest.raises(ValueError, match=message):
            policy.decide_nodes(
                np.zeros((2, 4)), np.ones(2), nodes=np.array([0, node])
            )
        with pytest.raises(ValueError, match=message):
            policy.prepare_traces([_trace(0, 1), _trace(node, 1)])

    def test_validation(self):
        plain = ClusterTopology(
            n_nodes=8, dimms_per_node=2, manufacturer_shares=(0.5, 0.5)
        )
        with pytest.raises(ValueError, match="segments"):
            SegmentedFleetPolicy(plain, [])
        with pytest.raises(ValueError, match="2 segments"):
            SegmentedFleetPolicy(_topology(), [NeverMitigatePolicy()])

    def test_cost_dependent_is_any_of_the_parts(self):
        static = SegmentedFleetPolicy(
            _topology(), [AlwaysMitigatePolicy(), NeverMitigatePolicy()]
        )
        assert static.cost_dependent is False


class TestBuilder:
    def test_homogeneous_topology_falls_back(self):
        ctx = SimpleNamespace(scenario=ScenarioConfig.small())
        policy = build_fleet_policy(ctx)
        assert isinstance(policy, FallbackPolicy)
        assert policy.name == "Fleet-mix"

    def test_builds_one_policy_per_segment(self):
        scenario = ScenarioConfig.small()
        topology = replace(
            scenario.topology,
            segments=(
                FleetSegment(
                    name="a", n_nodes=24, manufacturer=0, policy="always"
                ),
                FleetSegment(
                    name="b", n_nodes=24, manufacturer=1, policy="never"
                ),
            ),
        )
        ctx = SimpleNamespace(
            scenario=scenario.with_topology(topology),
            mitigation_cost=2.0 / 60.0,
            sc20=lambda: None,
        )
        policy = build_fleet_policy(ctx)
        assert isinstance(policy, SegmentedFleetPolicy)
        assert isinstance(policy.segment_policies[0], AlwaysMitigatePolicy)
        assert isinstance(policy.segment_policies[1], NeverMitigatePolicy)

    def test_untrained_forest_degrades_to_never(self):
        scenario = ScenarioConfig.small()
        topology = replace(
            scenario.topology,
            segments=(
                FleetSegment(name="a", n_nodes=48, manufacturer=0, policy="sc20"),
            ),
        )
        ctx = SimpleNamespace(
            scenario=scenario.with_topology(topology),
            mitigation_cost=2.0 / 60.0,
            sc20=lambda: None,
        )
        policy = build_fleet_policy(ctx)
        assert isinstance(policy.segment_policies[0], NeverMitigatePolicy)

    def test_default_policy_name_is_valid(self):
        assert DEFAULT_SEGMENT_POLICY in SEGMENT_POLICY_NAMES

    def test_unknown_policy_name_rejected(self):
        scenario = ScenarioConfig.small()
        topology = replace(
            scenario.topology,
            segments=(
                FleetSegment(name="a", n_nodes=48, manufacturer=0, policy="llm"),
            ),
        )
        ctx = SimpleNamespace(
            scenario=scenario.with_topology(topology),
            mitigation_cost=2.0 / 60.0,
            sc20=lambda: None,
        )
        with pytest.raises(ValueError, match="llm"):
            build_fleet_policy(ctx)

    def test_shared_policies_are_cached_by_name(self):
        scenario = ScenarioConfig.small()
        topology = replace(
            scenario.topology,
            segments=(
                FleetSegment(name="a", n_nodes=24, manufacturer=0, policy="never"),
                FleetSegment(name="b", n_nodes=24, manufacturer=1, policy="never"),
            ),
        )
        ctx = SimpleNamespace(
            scenario=scenario.with_topology(topology),
            mitigation_cost=2.0 / 60.0,
            sc20=lambda: None,
        )
        policy = build_fleet_policy(ctx)
        assert policy.segment_policies[0] is policy.segment_policies[1]


def test_registry_exposes_fleet_mix_behind_the_toggle():
    from repro.evaluation.pipeline import ExperimentConfig
    from repro.evaluation.registry import enabled_specs, get_approach

    spec = get_approach("Fleet-mix")
    assert spec.group == "rf"
    names_off = [s.name for s in enabled_specs(ExperimentConfig())]
    assert "Fleet-mix" not in names_off
    names_on = [
        s.name
        for s in enabled_specs(ExperimentConfig(include_fleet_mix=True))
    ]
    assert "Fleet-mix" in names_on
    # Canonical ordering: between Myopic-RF and RL.
    assert names_on.index("Fleet-mix") > names_on.index("Myopic-RF")
    assert names_on.index("Fleet-mix") < names_on.index("RL")
