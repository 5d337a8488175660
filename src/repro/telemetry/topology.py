"""Cluster topology: nodes, DIMMs and DRAM manufacturers.

MareNostrum 3 comprised 3056 compute nodes with more than 25,000 DDR3-1600
DIMMs from three (anonymised) manufacturers, with 6694, 5207 and 13,419 DIMMs
from Manufacturer A, B and C respectively.  With few exceptions, all DIMMs of
a node come from the same manufacturer (Section 4.5); the topology model
therefore assigns manufacturers per *node*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import (
    check_fields, fraction, non_negative, positive, sequence_of, text
)


@dataclass(frozen=True)
class FleetSegment:
    """One homogeneous slice of a heterogeneous fleet.

    Real clusters are rarely uniform: racks are procured in generations,
    each with its own DRAM manufacturer and its own fault rates (newer
    parts fail less).  A segment pins a contiguous block of nodes to one
    manufacturer and scales its CE/UE incidence; the optional ``policy``
    names the mitigation approach serving the segment in the Fleet-mix
    composite policy (see :mod:`repro.baselines.fleet`).
    """

    #: Human-readable segment name (unique within a topology).
    name: str = text()
    #: Number of consecutive nodes in this segment.
    n_nodes: int = positive(kind=int)
    #: Manufacturer index of every DIMM in the segment.
    manufacturer: int = non_negative(kind=int)
    #: DIMM-generation fault-rate multipliers relative to the fault model.
    ce_scale: float = positive(1.0)
    ue_scale: float = positive(1.0)
    #: Per-segment policy of the Fleet-mix approach (``None``: the default).
    policy: Optional[str] = text(None)

    def __post_init__(self) -> None:
        check_fields(self)

    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        return simple_to_dict(self, "fleet_segment")

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSegment":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict

        return simple_from_dict(cls, data, "fleet_segment")


@dataclass(frozen=True)
class ClusterTopology:
    """Static description of the monitored cluster.

    Parameters
    ----------
    n_nodes:
        Number of compute nodes (login/test nodes are excluded, §2.1).
    dimms_per_node:
        DIMMs installed in each node.
    manufacturer_shares:
        Fraction of nodes populated with DIMMs from each manufacturer; must
        sum to 1 (a small tolerance is allowed and re-normalised).
    mixed_node_fraction:
        Fraction of nodes whose DIMMs mix two manufacturers ("with few
        exceptions, all DIMMs in a given node are from the same DRAM
        manufacturer").
    """

    n_nodes: int = positive(kind=int)
    dimms_per_node: int = positive(8, int)
    manufacturer_shares: Tuple[float, ...] = sequence_of(
        (0.26, 0.21, 0.53), non_negative()
    )
    mixed_node_fraction: float = fraction(0.01)
    ranks_per_dimm: int = positive(4, int)
    banks_per_rank: int = positive(8, int)
    rows_per_bank: int = positive(65536, int)
    cols_per_row: int = positive(1024, int)
    #: Heterogeneous-fleet description: contiguous node blocks, each with
    #: its own manufacturer and DIMM-generation fault scaling.  When empty
    #: (the default) manufacturers are drawn from ``manufacturer_shares``
    #: exactly as before; when present the segment node counts must sum to
    #: ``n_nodes`` and the assignment is deterministic.
    segments: Tuple[FleetSegment, ...] = sequence_of((), FleetSegment, empty=True)

    def __post_init__(self) -> None:
        check_fields(self)
        total = float(sum(self.manufacturer_shares))
        if not np.isclose(total, 1.0, atol=5e-2):
            raise ValueError(
                f"manufacturer_shares must sum to ~1, got {total:.3f}"
            )
        if self.segments:
            seg_total = sum(seg.n_nodes for seg in self.segments)
            if seg_total != self.n_nodes:
                raise ValueError(
                    f"fleet segments cover {seg_total} nodes but the "
                    f"topology has {self.n_nodes}"
                )
            names = [seg.name for seg in self.segments]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate segment names in {names!r}")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import simple_to_dict

        payload = simple_to_dict(self, "cluster_topology")
        payload["segments"] = [seg.to_dict() for seg in self.segments]
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterTopology":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import simple_from_dict, untag

        payload = untag(data, "cluster_topology")
        segments = [FleetSegment.from_dict(seg) for seg in payload.get("segments", [])]
        return simple_from_dict(cls, {**data, "segments": segments}, "cluster_topology")

    # ------------------------------------------------------------------ #
    @property
    def n_dimms(self) -> int:
        """Total number of DIMMs in the cluster."""
        return self.n_nodes * self.dimms_per_node

    @property
    def n_manufacturers(self) -> int:
        """Number of DRAM manufacturers present."""
        n = len(self.manufacturer_shares)
        if self.segments:
            n = max(n, max(seg.manufacturer for seg in self.segments) + 1)
        return n

    def dimm_node(self, dimm: np.ndarray | int) -> np.ndarray | int:
        """Node hosting DIMM ``dimm`` (vectorised)."""
        return np.asarray(dimm) // self.dimms_per_node

    def node_dimms(self, node: int) -> np.ndarray:
        """Global DIMM identifiers installed in ``node``."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")
        start = node * self.dimms_per_node
        return np.arange(start, start + self.dimms_per_node, dtype=np.int64)

    def segment_bounds(self) -> Tuple[Tuple[int, int], ...]:
        """``(start, stop)`` node range of each segment, in declaration order."""
        bounds = []
        start = 0
        for seg in self.segments:
            bounds.append((start, start + seg.n_nodes))
            start += seg.n_nodes
        return tuple(bounds)

    def node_segment(self) -> np.ndarray:
        """Segment index of every node (requires ``segments``)."""
        if not self.segments:
            raise ValueError("topology has no fleet segments")
        return np.repeat(
            np.arange(len(self.segments), dtype=np.int32),
            [seg.n_nodes for seg in self.segments],
        )

    def assign_manufacturers(self, rng=None) -> np.ndarray:
        """Assign a manufacturer index to every DIMM.

        Manufacturers are assigned per node (nodes are homogeneous) except
        for a ``mixed_node_fraction`` of nodes in which one DIMM is replaced
        by a part from a different manufacturer — mirroring the "few
        exceptions" noted in Section 4.5.

        When the topology declares fleet ``segments`` the assignment is
        instead fully deterministic: each contiguous node block takes its
        segment's manufacturer and no random numbers are consumed.

        Returns
        -------
        numpy.ndarray of shape ``(n_dimms,)`` with manufacturer indices.
        """
        if self.segments:
            node_manu = np.repeat(
                np.asarray([seg.manufacturer for seg in self.segments]),
                [seg.n_nodes for seg in self.segments],
            )
            return np.repeat(node_manu, self.dimms_per_node).astype(np.int8)
        rng = as_generator(rng, "topology")
        shares = np.asarray(self.manufacturer_shares, dtype=float)
        shares = shares / shares.sum()
        node_manu = rng.choice(len(shares), size=self.n_nodes, p=shares)
        dimm_manu = np.repeat(node_manu, self.dimms_per_node).astype(np.int8)
        if self.mixed_node_fraction > 0 and len(shares) > 1:
            n_mixed = int(round(self.mixed_node_fraction * self.n_nodes))
            if n_mixed > 0:
                mixed_nodes = rng.choice(self.n_nodes, size=n_mixed, replace=False)
                for node in mixed_nodes:
                    slot = int(rng.integers(self.dimms_per_node))
                    current = dimm_manu[node * self.dimms_per_node + slot]
                    alternatives = [m for m in range(len(shares)) if m != current]
                    dimm_manu[node * self.dimms_per_node + slot] = rng.choice(
                        alternatives
                    )
        return dimm_manu
