"""Event record types shared by the telemetry generator and parsers.

The telemetry substrate models the five kinds of events the paper's feature
set (Table 1) is built from:

* corrected errors (CE) reported by the mcelog-style daemon, with the DIMM
  physical location (rank, bank, row, column), the number of errors observed
  in the 100 ms polling period, and whether the error was found by an
  application read or the patrol scrubber;
* uncorrected errors (UE) reported by the platform firmware, which terminate
  the node;
* UE warnings (correctable-error logging limit reached or memory throttled);
* node boot events;
* DIMM retirement events recorded by the system administrators;
* critical over-temperature conditions, which shut the node down and are
  therefore *counted as UEs* (Section 2.1.2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple

#: Anonymised manufacturer labels used throughout the paper.
MANUFACTURER_NAMES: Tuple[str, ...] = ("A", "B", "C")


class EventKind(enum.IntEnum):
    """Kind of telemetry event."""

    CE = 0
    UE = 1
    UE_WARNING = 2
    BOOT = 3
    RETIREMENT = 4
    OVERTEMP = 5

    @property
    def counts_as_ue(self) -> bool:
        """True for events that terminate the node like an uncorrected error.

        Critical over-temperature conditions cause a node shutdown and are
        counted as equivalent to uncorrected errors (Section 2.1.2).
        """
        return self in TERMINAL_KINDS


#: Event kinds that terminate the node like an uncorrected error: UEs and
#: critical over-temperature shutdowns (Section 2.1.2).  IntEnum members hash
#: and compare like their integer codes, so a raw kind code tests against
#: this set as well.
TERMINAL_KINDS: FrozenSet[EventKind] = frozenset({EventKind.UE, EventKind.OVERTEMP})


@dataclass(frozen=True, order=True)
class EventRecord:
    """A single telemetry event.

    Attributes
    ----------
    time:
        Seconds since the beginning of the observed production period
        (finite and ``>= 0``).
    node:
        Compute node identifier.
    dimm:
        Global DIMM identifier (``-1`` for node-level events such as boots).
    kind:
        The :class:`EventKind`.
    ce_count:
        Number of corrected errors covered by this record (the MCA registers
        report a count when several errors fall in one polling period).
    rank, bank, row, col:
        Physical location of the (sampled) corrected error, ``-1`` if the
        location is unknown or not applicable.
    scrubber:
        True if the error was found by the patrol scrubber rather than an
        application memory request.
    manufacturer:
        DRAM manufacturer index (0 = A, 1 = B, 2 = C), ``-1`` if unknown.
    """

    time: float
    node: int
    dimm: int = -1
    kind: EventKind = field(default=EventKind.CE, compare=False)
    ce_count: int = field(default=0, compare=False)
    rank: int = field(default=-1, compare=False)
    bank: int = field(default=-1, compare=False)
    row: int = field(default=-1, compare=False)
    col: int = field(default=-1, compare=False)
    scrubber: bool = field(default=False, compare=False)
    manufacturer: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.time < math.inf:  # also rejects NaN
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")
        if self.node < 0:
            raise ValueError(f"node id must be >= 0, got {self.node}")
        if self.kind == EventKind.CE and self.ce_count < 1:
            raise ValueError("CE events must carry ce_count >= 1")

    @property
    def is_ue(self) -> bool:
        """True if this event is counted as an uncorrected error."""
        return self.kind in TERMINAL_KINDS

    @property
    def manufacturer_name(self) -> str:
        """Anonymised manufacturer letter, or ``'?'`` when unknown."""
        if 0 <= self.manufacturer < len(MANUFACTURER_NAMES):
            return MANUFACTURER_NAMES[self.manufacturer]
        return "?"
