"""Columnar, NumPy-backed container for telemetry event logs.

An :class:`ErrorLog` stores every event of a production period in parallel
NumPy arrays (structure-of-arrays) so that the filtering, counting and
windowing operations used by feature extraction and the evaluation harness
are vectorised.  Individual events can still be materialised as
:class:`~repro.telemetry.records.EventRecord` objects for I/O and debugging.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import astuple, dataclass
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.telemetry.records import TERMINAL_KINDS, EventKind, EventRecord

_COLUMNS = (
    ("time", np.float64),
    ("node", np.int64),
    ("dimm", np.int64),
    ("kind", np.int8),
    ("ce_count", np.int64),
    ("rank", np.int32),
    ("bank", np.int32),
    ("row", np.int64),
    ("col", np.int64),
    ("scrubber", np.bool_),
    ("manufacturer", np.int8),
)

#: Rows per column chunk when iterating a log: each chunk is read into plain
#: Python lists at once, so a large log never materialises whole columns.
_ITER_CHUNK = 1024

#: EventKind by integer code; a dict lookup is cheaper than ``EventKind(code)``.
_KIND_BY_CODE = {int(kind): kind for kind in EventKind}

#: One event of :meth:`ErrorLog.rows`: ``EventRecord``'s fields, as a tuple.
EventRow = namedtuple("EventRow", [name for name, _ in _COLUMNS])
#: Every valid kind code, and the kind's position in a row.
_KIND_CODES = np.array(sorted(_KIND_BY_CODE), dtype=np.int8)
_KIND_FIELD = [name for name, _ in _COLUMNS].index("kind")

#: Kind codes counted as uncorrected errors, for the vectorised mask.
_TERMINAL_CODES = tuple(sorted(int(kind) for kind in TERMINAL_KINDS))


def _make_record(
    time, node, dimm, kind, ce_count, rank, bank, row, col, scrubber, manufacturer
) -> EventRecord:
    """Build one record from one row of plain Python column values."""
    event_kind = _KIND_BY_CODE.get(kind)
    if event_kind is None:
        raise ValueError(f"{kind!r} is not a valid EventKind")
    return EventRecord(
        time=time,
        node=node,
        dimm=dimm,
        kind=event_kind,
        ce_count=ce_count,
        rank=rank,
        bank=bank,
        row=row,
        col=col,
        scrubber=scrubber,
        manufacturer=manufacturer,
    )


@dataclass(frozen=True)
class ErrorLogStats:
    """Summary statistics of an :class:`ErrorLog` (Section 2.1.5 style)."""

    n_events: int
    n_ce_records: int
    n_corrected_errors: int
    n_uncorrected_errors: int
    n_ue_warnings: int
    n_boots: int
    n_retirements: int
    n_overtemp: int
    n_nodes_with_events: int
    n_dimms_with_ce: int
    time_span_seconds: float


class ErrorLog:
    """Immutable-by-convention, time-sorted telemetry event log."""

    __slots__ = tuple(name for name, _ in _COLUMNS)

    def __init__(self, **columns: np.ndarray) -> None:
        n = None
        for name, dtype in _COLUMNS:
            arr = np.asarray(columns.get(name, np.empty(0)), dtype=dtype)
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError(
                    f"column {name!r} has length {arr.shape[0]}, expected {n}"
                )
            object.__setattr__(self, name, arr)
        if n and not np.isfinite(self.time).all():
            raise ValueError("event times must be finite")
        if n and np.any(np.diff(self.time) < 0):
            order = np.argsort(self.time, kind="stable")
            for name, _ in _COLUMNS:
                object.__setattr__(self, name, getattr(self, name)[order])

    def __setattr__(self, key, value):  # pragma: no cover - guard
        raise AttributeError("ErrorLog columns are read-only; build a new log")

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "ErrorLog":
        """An error log with no events."""
        return cls()

    @classmethod
    def from_records(cls, records: Iterable[EventRecord]) -> "ErrorLog":
        """Build a log from an iterable of :class:`EventRecord`."""
        records = list(records)
        if not records:
            return cls.empty()
        return cls(
            time=[r.time for r in records],
            node=[r.node for r in records],
            dimm=[r.dimm for r in records],
            kind=[int(r.kind) for r in records],
            ce_count=[r.ce_count for r in records],
            rank=[r.rank for r in records],
            bank=[r.bank for r in records],
            row=[r.row for r in records],
            col=[r.col for r in records],
            scrubber=[r.scrubber for r in records],
            manufacturer=[r.manufacturer for r in records],
        )

    @classmethod
    def concatenate(cls, logs: Sequence["ErrorLog"]) -> "ErrorLog":
        """Merge several logs into one, re-sorting by time."""
        logs = [log for log in logs if len(log)]
        if not logs:
            return cls.empty()
        return cls(
            **{
                name: np.concatenate([getattr(log, name) for log in logs])
                for name, _ in _COLUMNS
            }
        )

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.time.shape[0])

    def __iter__(self) -> Iterator[EventRecord]:
        return (EventRecord(*row) for row in self.rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ErrorLog):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name, _ in _COLUMNS
        )

    def __hash__(self):  # pragma: no cover - logs are not hashable
        return NotImplemented

    def rows(self) -> Iterator[EventRow]:
        """The events as :data:`EventRow` tuples, field for field :meth:`record`.

        Each chunk is read with ``tolist()`` and checked once, vectorised,
        against ``EventRecord``'s rules; a chunk that breaks one is built
        through ``EventRecord`` row by row, so its first rejected row raises
        ``EventRecord``'s own message at its turn.
        """
        columns = [getattr(self, name) for name, _ in _COLUMNS]
        for lo in range(0, len(self), _ITER_CHUNK):
            part = slice(lo, lo + _ITER_CHUNK)
            chunk = [column[part].tolist() for column in columns]
            time, kind = self.time[part], self.kind[part]
            if (
                np.isin(kind, _KIND_CODES) & (time >= 0.0) & (time < np.inf)
                & (self.node[part] >= 0)
                & ((kind != int(EventKind.CE)) | (self.ce_count[part] >= 1))
            ).all():
                chunk[_KIND_FIELD] = [_KIND_BY_CODE[code] for code in chunk[_KIND_FIELD]]
                yield from map(EventRow._make, zip(*chunk))
            else:
                for row in zip(*chunk):
                    yield EventRow(*astuple(_make_record(*row)))

    def record(self, index: int) -> EventRecord:
        """Materialise event ``index`` as an :class:`EventRecord`."""
        return _make_record(*(getattr(self, name)[index].item() for name, _ in _COLUMNS))

    def to_records(self) -> List[EventRecord]:
        """Materialise the whole log as a list of records."""
        return list(self)

    # ------------------------------------------------------------------ #
    # Masks and selection
    # ------------------------------------------------------------------ #
    def _select(self, mask: np.ndarray) -> "ErrorLog":
        return ErrorLog(
            **{name: getattr(self, name)[mask] for name, _ in _COLUMNS}
        )

    def select(self, mask: np.ndarray) -> "ErrorLog":
        """Return a sub-log selected by a boolean mask or index array."""
        return self._select(np.asarray(mask))

    def is_kind(self, kind: EventKind) -> np.ndarray:
        """Boolean mask of events of ``kind``."""
        return self.kind == int(kind)

    @property
    def is_ue_mask(self) -> np.ndarray:
        """Mask of events counted as uncorrected errors (UE or over-temp)."""
        mask = np.zeros(self.kind.shape, dtype=bool)
        for code in _TERMINAL_CODES:
            mask |= self.kind == code
        return mask

    def filter_kind(self, kind: EventKind) -> "ErrorLog":
        """Events of one kind only."""
        return self._select(self.is_kind(kind))

    def filter_time(self, t_start: float, t_end: float) -> "ErrorLog":
        """Events with ``t_start <= time < t_end`` (fast: uses sortedness)."""
        lo = int(np.searchsorted(self.time, t_start, side="left"))
        hi = int(np.searchsorted(self.time, t_end, side="left"))
        return self._select(np.arange(lo, hi))

    def filter_node(self, node: int) -> "ErrorLog":
        """Events observed on one node."""
        return self._select(self.node == node)

    def filter_nodes(self, nodes: Sequence[int]) -> "ErrorLog":
        """Events observed on any of ``nodes``."""
        return self._select(np.isin(self.node, np.asarray(nodes)))

    def filter_manufacturer(self, manufacturer: int) -> "ErrorLog":
        """Events on nodes populated by ``manufacturer``.

        Node-level events (boots) carry ``manufacturer = -1``; they are kept
        if the node hosts at least one DIMM of the requested manufacturer, so
        the per-manufacturer subsystems of Section 4.5 keep their boot
        history.
        """
        with_manu = self.manufacturer == manufacturer
        nodes = np.unique(self.node[with_manu])
        node_level = (self.manufacturer < 0) & np.isin(self.node, nodes)
        return self._select(with_manu | node_level)

    def exclude_dimms(self, dimms: Sequence[int]) -> "ErrorLog":
        """Drop all DIMM-level events belonging to ``dimms``."""
        dimms = np.asarray(list(dimms))
        if dimms.size == 0:
            return self
        mask = ~np.isin(self.dimm, dimms) | (self.dimm < 0)
        return self._select(mask)

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> np.ndarray:
        """Sorted unique node identifiers present in the log."""
        return np.unique(self.node)

    @property
    def ue_times(self) -> np.ndarray:
        """Times of all events counted as UEs."""
        return self.time[self.is_ue_mask]

    def total_corrected_errors(self) -> int:
        """Total number of corrected errors (sum of CE counts, §2.1.1)."""
        return int(self.ce_count[self.kind == int(EventKind.CE)].sum())

    def count_kind(self, kind: EventKind) -> int:
        """Number of log records of ``kind``."""
        return int(np.count_nonzero(self.kind == int(kind)))

    def count_ues(self) -> int:
        """Number of events counted as uncorrected errors."""
        return int(np.count_nonzero(self.is_ue_mask))

    def stats(self) -> ErrorLogStats:
        """Summary statistics used to validate the generator (§2.1.5)."""
        ce_mask = self.kind == int(EventKind.CE)
        span = 0.0
        if len(self):
            span = float(self.time[-1] - self.time[0])
        return ErrorLogStats(
            n_events=len(self),
            n_ce_records=int(np.count_nonzero(ce_mask)),
            n_corrected_errors=self.total_corrected_errors(),
            n_uncorrected_errors=self.count_ues(),
            n_ue_warnings=self.count_kind(EventKind.UE_WARNING),
            n_boots=self.count_kind(EventKind.BOOT),
            n_retirements=self.count_kind(EventKind.RETIREMENT),
            n_overtemp=self.count_kind(EventKind.OVERTEMP),
            n_nodes_with_events=int(np.unique(self.node).size),
            n_dimms_with_ce=int(np.unique(self.dimm[ce_mask]).size),
            time_span_seconds=span,
        )

    def time_range(self) -> tuple[float, float]:
        """(first, last) event time; (0, 0) for an empty log."""
        if not len(self):
            return (0.0, 0.0)
        return float(self.time[0]), float(self.time[-1])

    # ------------------------------------------------------------------ #
    # Grouping
    # ------------------------------------------------------------------ #
    def node_slices(self) -> dict[int, np.ndarray]:
        """Map node id -> indices of its events (each in time order)."""
        order = np.lexsort((self.time, self.node))
        sorted_nodes = self.node[order]
        result: dict[int, np.ndarray] = {}
        if order.size == 0:
            return result
        boundaries = np.flatnonzero(np.diff(sorted_nodes)) + 1
        groups = np.split(order, boundaries)
        for group in groups:
            result[int(self.node[group[0]])] = group
        return result

    def per_node(self) -> dict[int, "ErrorLog"]:
        """Split the log into one sub-log per node."""
        return {
            node: self._select(indices)
            for node, indices in self.node_slices().items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"ErrorLog(events={s.n_events}, CEs={s.n_corrected_errors}, "
            f"UEs={s.n_uncorrected_errors}, nodes={s.n_nodes_with_events})"
        )
