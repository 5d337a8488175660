"""Fleet-mix: per-segment policy routing over a heterogeneous fleet.

Real clusters are procured in generations; a site operator would not run one
mitigation policy over racks with wildly different failure rates.  The
:class:`SegmentedFleetPolicy` composite routes every decision to the
sub-policy owning the node's :class:`~repro.telemetry.topology.FleetSegment`
— e.g. "always mitigate on the old high-UE racks, use the trained SC20
forest elsewhere" — while presenting the evaluation harness with a single
:class:`~repro.core.policies.MitigationPolicy`.

The composite is registered as the "Fleet-mix" approach (order 55, group
``"rf"`` so it shares the split's trained forest with the SC20 family) and
only runs when ``ExperimentConfig.include_fleet_mix`` is set, keeping every
existing experiment's approach set unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.myopic import MyopicRFPolicy
from repro.baselines.static import (
    AlwaysMitigatePolicy,
    NeverMitigatePolicy,
    OraclePolicy,
)
from repro.core.policies import (
    DecisionContext,
    FallbackPolicy,
    MitigationPolicy,
)
from repro.telemetry.topology import ClusterTopology

__all__ = [
    "DEFAULT_SEGMENT_POLICY",
    "SEGMENT_POLICY_NAMES",
    "SegmentedFleetPolicy",
    "build_fleet_policy",
]

#: Policy names a :class:`~repro.telemetry.topology.FleetSegment` may request.
SEGMENT_POLICY_NAMES = ("never", "always", "sc20", "myopic", "oracle")

#: Policy served to segments that do not name one.
DEFAULT_SEGMENT_POLICY = "sc20"


class SegmentedFleetPolicy(MitigationPolicy):
    """Route decisions to one sub-policy per fleet segment.

    Every evaluation trace belongs to exactly one node, so every row of a
    replay panel resolves through the sub-policy of its node's segment; the
    composite only has to partition rows, never to merge decisions.

    Training costs of shared artifacts (the SC20 forest) are charged to the
    approaches that own them, so the composite itself reports zero.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        segment_policies: Sequence[MitigationPolicy],
        name: str = "Fleet-mix",
    ) -> None:
        if not topology.segments:
            raise ValueError(
                "SegmentedFleetPolicy needs a topology with fleet segments"
            )
        if len(segment_policies) != len(topology.segments):
            raise ValueError(
                f"{len(topology.segments)} segments but "
                f"{len(segment_policies)} policies"
            )
        self.topology = topology
        self.segment_policies: List[MitigationPolicy] = list(segment_policies)
        self.name = name
        self._node_segment = topology.node_segment()
        #: Segment of each row of the prepared panel (see
        #: :meth:`prepare_traces`).
        self._row_segment: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def _segments_of(self, nodes) -> np.ndarray:
        """Segment index of each node id, rejecting ids outside the topology."""
        nodes = np.asarray(nodes, dtype=np.int64)
        outside = (nodes < 0) | (nodes >= self._node_segment.size)
        if outside.any():
            raise ValueError(
                f"node {int(nodes[outside].flat[0])} outside the topology "
                f"[0, {self._node_segment.size})"
            )
        return self._node_segment[nodes]

    def _unique_policies(self) -> List[MitigationPolicy]:
        unique: List[MitigationPolicy] = []
        for policy in self.segment_policies:
            if all(policy is not seen for seen in unique):
                unique.append(policy)
        return unique

    # ------------------------------------------------------------------ #
    @property
    def cost_dependent(self) -> bool:  # type: ignore[override]
        return any(policy.cost_dependent for policy in self.segment_policies)

    def decide(self, context: DecisionContext) -> bool:
        segment = int(self._segments_of(context.node))
        return self.segment_policies[segment].decide(context)

    def decide_rows(
        self, rows: np.ndarray, ue_costs: np.ndarray
    ) -> Optional[np.ndarray]:
        """Each segment's rows answered by its sub-policy in one call."""
        if self._row_segment is None:
            return None
        costs = np.asarray(ue_costs, dtype=float)
        segments = self._row_segment[rows]
        out = np.empty(len(rows), dtype=bool)
        for segment in np.unique(segments):
            idx = np.flatnonzero(segments == segment)
            decided = self.segment_policies[int(segment)].decide_rows(
                rows[idx], costs[idx]
            )
            if decided is None:
                return None
            out[idx] = decided
        return out

    def decide_nodes(
        self,
        features: np.ndarray,
        ue_costs: np.ndarray,
        times: Optional[np.ndarray] = None,
        nodes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        if nodes is None:
            raise ValueError(
                "SegmentedFleetPolicy.decide_nodes routes by node id; the "
                "nodes array is required"
            )
        nodes = np.asarray(nodes, dtype=int)
        features = np.asarray(features, dtype=float)
        costs = np.asarray(ue_costs, dtype=float)
        out = np.empty(len(nodes), dtype=bool)
        segments = self._segments_of(nodes)
        for segment in np.unique(segments):
            idx = np.flatnonzero(segments == segment)
            out[idx] = self.segment_policies[int(segment)].decide_nodes(
                features[idx],
                costs[idx],
                times=None if times is None else np.asarray(times, dtype=float)[idx],
                nodes=nodes[idx],
            )
        return out

    def reset(self) -> None:
        for policy in self._unique_policies():
            policy.reset()

    def prepare_trace(self, features: np.ndarray) -> None:
        # The scalar replay does not say which node the matrix belongs to,
        # so every distinct sub-policy gets to cache it.
        for policy in self._unique_policies():
            policy.prepare_trace(features)

    def prepare_traces(self, traces) -> None:
        """Prepare every sub-policy's panel and record each row's segment."""
        self._row_segment = None
        for policy in self._unique_policies():
            policy.prepare_traces(traces)
        if traces:
            segments = self._segments_of([trace.node for trace in traces])
            self._row_segment = np.repeat(
                segments, [len(trace) for trace in traces]
            )


def build_fleet_policy(ctx) -> MitigationPolicy:
    """Builder of the "Fleet-mix" approach (registry signature: ctx-only part).

    Homogeneous topologies (no segments) get a Never-mitigate fallback under
    the Fleet-mix name, mirroring how untrained learned approaches degrade.
    The trained forest is only requested when some segment actually asks for
    an ``"sc20"`` or ``"myopic"`` policy.
    """
    topology = ctx.scenario.topology
    if not topology.segments:
        return FallbackPolicy(NeverMitigatePolicy(), "Fleet-mix")
    cache: dict = {}

    def make(requested: Optional[str]) -> MitigationPolicy:
        name = requested or DEFAULT_SEGMENT_POLICY
        if name in cache:
            return cache[name]
        if name == "never":
            policy: MitigationPolicy = NeverMitigatePolicy()
        elif name == "always":
            policy = AlwaysMitigatePolicy()
        elif name == "oracle":
            policy = OraclePolicy()
        elif name in ("sc20", "myopic"):
            artifacts = ctx.sc20()
            if artifacts is None:
                policy = NeverMitigatePolicy()
            elif name == "sc20":
                policy = artifacts.optimal_policy
            else:
                policy = MyopicRFPolicy(
                    artifacts.optimal_policy, ctx.mitigation_cost
                )
        else:
            raise ValueError(
                f"unknown segment policy {name!r}; "
                f"valid names: {SEGMENT_POLICY_NAMES}"
            )
        cache[name] = policy
        return policy

    return SegmentedFleetPolicy(
        topology, [make(segment.policy) for segment in topology.segments]
    )
