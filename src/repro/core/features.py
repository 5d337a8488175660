"""Per-node feature extraction (Table 1 of the paper).

For every merged decision point (one per node per minute with events, see
:mod:`repro.telemetry.merging`) the agent observes:

* corrected-error features: CEs since the last event, CEs since the beginning
  of operation, the number of distinct ranks / banks / rows / columns with
  CEs, and the number of DIMMs with CEs;
* uncorrected-error features: the number of UE warnings since the beginning
  of operation;
* system-state features: time since the last node boot and the number of
  node boots;
* the *feature variation over time* (Equation 2) of the cumulative CE count
  and boot count, for Δt of one minute and one hour;
* the potential UE cost (Equation 3) — supplied by the environment, not by
  this module, because it depends on the workload and the mitigation history.

Counts are cumulative from the beginning of the extracted range, which in
training/evaluation corresponds to the beginning of the cross-validation
split — the same information the production monitoring daemon would have.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.error_log import ErrorLog
from repro.telemetry.merging import MergedEvent, merge_node_events
from repro.telemetry.records import TERMINAL_KINDS, EventKind, EventRecord
from repro.utils.timeutils import HOUR, MINUTE

#: Names of the telemetry-derived state features, in vector order.
FEATURE_NAMES: Tuple[str, ...] = (
    "ces_since_last_event",
    "ces_total",
    "ranks_with_ce",
    "banks_with_ce",
    "rows_with_ce",
    "cols_with_ce",
    "dimms_with_ce",
    "ue_warnings_total",
    "time_since_boot",
    "boots_total",
    "ces_total_var_1min",
    "ces_total_var_1hour",
    "boots_var_1min",
    "boots_var_1hour",
)

#: Number of telemetry-derived features (the full state adds the UE cost).
N_FEATURES: int = len(FEATURE_NAMES)

#: Index of each feature name in the feature vector.
FEATURE_INDEX: Dict[str, int] = {name: i for i, name in enumerate(FEATURE_NAMES)}

#: Δt values for the feature-variation-over-time calculation (Equation 2).
VARIATION_DELTAS: Tuple[float, ...] = (MINUTE, HOUR)

# Kind codes as plain ints: the online extractor compares every grouped
# event's code against them without going through the enum.
_CE = int(EventKind.CE)
_UE_WARNING = int(EventKind.UE_WARNING)
_BOOT = int(EventKind.BOOT)


def feature_variation(
    history_times: Sequence[float],
    history_values: Sequence[float],
    now: float,
    value_now: float,
    delta: float,
) -> float:
    """Equation 2: value(now) / value(now - Δt), 0 when the denominator is 0.

    ``history_times``/``history_values`` record the cumulative feature value
    after each past event; the value at ``now - Δt`` is the value after the
    last event at or before that instant.  The look-back is a
    ``bisect_right`` over the sorted history times, which equals numpy's
    ``searchsorted(side="right")`` on NaN-free times (:class:`ErrorLog`,
    :class:`~repro.telemetry.records.EventRecord` and
    :meth:`OnlineFeatureState.absorb_event` reject non-finite times).
    """
    idx = bisect_right(history_times, now - delta) - 1
    return _variation(value_now, history_values, idx)


def _variation(value_now: float, history_values: Sequence[float], idx: int) -> float:
    """Equation 2 given the index of the value at ``now - Δt`` (``-1``: none)."""
    past = history_values[idx] if idx >= 0 else 0.0
    if past == 0.0:
        return 0.0
    return float(value_now) / float(past)


@dataclass(frozen=True)
class NodeFeatureTrack:
    """Pre-computed feature snapshots for one node, one per merged event.

    Attributes
    ----------
    node:
        Node identifier.
    times:
        Time of each merged event (decision point), sorted.
    features:
        Array of shape ``(n_events, N_FEATURES)``, the telemetry features at
        each decision point.
    is_ue:
        True where the merged event contains an uncorrected error (a terminal
        transition; the agent is not invoked for these).
    """

    node: int
    times: np.ndarray
    features: np.ndarray
    is_ue: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.times) == len(self.features) == len(self.is_ue)):
            raise ValueError("track arrays must have the same length")
        if self.features.ndim != 2 or (
            len(self.features) and self.features.shape[1] != N_FEATURES
        ):
            raise ValueError(
                f"features must have shape (n, {N_FEATURES}), got {self.features.shape}"
            )

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def n_decision_points(self) -> int:
        """Number of events at which the agent is actually invoked."""
        return int(np.count_nonzero(~self.is_ue))

    @property
    def ue_times(self) -> np.ndarray:
        """Times of the UE events on this node."""
        return self.times[self.is_ue]

    def slice_time(self, t_start: float, t_end: float) -> "NodeFeatureTrack":
        """Sub-track with ``t_start <= time < t_end``."""
        mask = (self.times >= t_start) & (self.times < t_end)
        return NodeFeatureTrack(
            node=self.node,
            times=self.times[mask],
            features=self.features[mask],
            is_ue=self.is_ue[mask],
        )


def extract_node_features(
    log: ErrorLog,
    node: int,
    indices: Optional[np.ndarray] = None,
    merge_window_seconds: float = MINUTE,
) -> NodeFeatureTrack:
    """Compute the Table 1 feature track for one node (vectorized).

    Bit-identical to the per-event reference loop
    (``extract_node_features_loop`` in ``tests/core/feature_reference.py``,
    pinned by the equivalence tests):
    cumulative counts fold with ``np.add.accumulate`` / ``np.add.at`` (exact
    ordered folds), distinct CE-location counting becomes a stable-sort
    first-occurrence scan, and the Equation 2 look-backs become one
    ``searchsorted`` per Δt.

    Parameters
    ----------
    log:
        The (preprocessed) error log.
    node:
        Node to extract.
    indices:
        Optional pre-computed indices of the node's events in ``log`` (from
        :meth:`ErrorLog.node_slices`); computed if omitted.
    merge_window_seconds:
        Per-minute merging window (Section 3.2.3).
    """
    if indices is None:
        indices = np.flatnonzero(log.node == node)
    merged = merge_node_events(log, indices, merge_window_seconds)
    n_steps = len(merged)

    times = np.array([step.time for step in merged], dtype=np.float64)
    is_ue = np.array([step.is_ue for step in merged], dtype=bool)
    features = np.zeros((n_steps, N_FEATURES))
    if n_steps == 0:
        return NodeFeatureTrack(
            node=int(node), times=times, features=features, is_ue=is_ue
        )

    # The merged steps partition ``indices`` in order; per-event arrays are
    # gathered once and reduced onto steps through the partition boundaries.
    event_indices = np.asarray(indices)
    step_sizes = np.array([step.n_raw_events for step in merged], dtype=np.int64)
    ends = np.add.accumulate(step_sizes)
    last_event = ends - 1
    step_of_event = np.repeat(np.arange(n_steps), step_sizes)

    ev_time = log.time[event_indices]
    kind = log.kind[event_indices]
    is_ce = kind == int(EventKind.CE)
    is_warning = kind == int(EventKind.UE_WARNING)
    is_boot = kind == int(EventKind.BOOT)
    ce_counts = np.where(is_ce, log.ce_count[event_indices].astype(np.float64), 0.0)

    # Cumulative totals are exact left folds of the per-event additions.
    cum_ces = np.add.accumulate(ce_counts)
    ces_total = cum_ces[last_event]
    ces_in_step = np.zeros(n_steps)
    np.add.at(ces_in_step, step_of_event, ce_counts)
    warnings_total = np.add.accumulate(np.where(is_warning, 1.0, 0.0))[last_event]
    boots_total = np.add.accumulate(np.where(is_boot, 1.0, 0.0))[last_event]

    # Time since the last node boot observed up to (and including) each
    # step; nodes without a boot yet measure from the track start.
    last_boot = np.maximum.accumulate(np.where(is_boot, ev_time, -np.inf))[last_event]
    track_start = float(log.time[event_indices[0]])
    time_since_boot = np.where(
        np.isneginf(last_boot), times - track_start, times - last_boot
    )

    dimm = log.dimm[event_indices].astype(np.int64)
    rank = log.rank[event_indices].astype(np.int64)
    bank = log.bank[event_indices].astype(np.int64)
    row = log.row[event_indices].astype(np.int64)
    col = log.col[event_indices].astype(np.int64)

    def distinct_counts(member: np.ndarray, *key_columns: np.ndarray) -> np.ndarray:
        """Per-step count of distinct key tuples among qualifying events."""
        if not member.any():
            return np.zeros(n_steps)
        positions = np.flatnonzero(member)
        keys = np.stack([column[member] for column in key_columns], axis=1)
        order = np.lexsort(keys.T[::-1])  # stable: ties keep event order
        sorted_keys = keys[order]
        new_group = np.ones(len(sorted_keys), dtype=bool)
        if len(sorted_keys) > 1:
            new_group[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
        first_seen = np.sort(positions[order[new_group]])
        return np.searchsorted(first_seen, last_event, side="right").astype(
            np.float64
        )

    dimms_count = distinct_counts(is_ce, dimm)
    ranks_count = distinct_counts(is_ce & (rank >= 0), dimm, rank)
    banks_count = distinct_counts(is_ce & (bank >= 0), dimm, rank, bank)
    rows_count = distinct_counts(is_ce & (row >= 0), dimm, rank, bank, row)
    cols_count = distinct_counts(is_ce & (col >= 0), dimm, rank, bank, col)

    def variation(values_at_step: np.ndarray, delta: float) -> np.ndarray:
        """Equation 2 over all steps: value(now) / value(now - Δt)."""
        reference = np.searchsorted(times, times - delta, side="right") - 1
        past = np.where(
            reference >= 0, values_at_step[np.maximum(reference, 0)], 0.0
        )
        out = np.zeros(n_steps)
        np.divide(values_at_step, past, out=out, where=past != 0.0)
        return out

    features[:, FEATURE_INDEX["ces_since_last_event"]] = ces_in_step
    features[:, FEATURE_INDEX["ces_total"]] = ces_total
    features[:, FEATURE_INDEX["ranks_with_ce"]] = ranks_count
    features[:, FEATURE_INDEX["banks_with_ce"]] = banks_count
    features[:, FEATURE_INDEX["rows_with_ce"]] = rows_count
    features[:, FEATURE_INDEX["cols_with_ce"]] = cols_count
    features[:, FEATURE_INDEX["dimms_with_ce"]] = dimms_count
    features[:, FEATURE_INDEX["ue_warnings_total"]] = warnings_total
    features[:, FEATURE_INDEX["time_since_boot"]] = np.maximum(time_since_boot, 0.0)
    features[:, FEATURE_INDEX["boots_total"]] = boots_total
    features[:, FEATURE_INDEX["ces_total_var_1min"]] = variation(ces_total, MINUTE)
    features[:, FEATURE_INDEX["ces_total_var_1hour"]] = variation(ces_total, HOUR)
    features[:, FEATURE_INDEX["boots_var_1min"]] = variation(boots_total, MINUTE)
    features[:, FEATURE_INDEX["boots_var_1hour"]] = variation(boots_total, HOUR)

    return NodeFeatureTrack(node=int(node), times=times, features=features, is_ue=is_ue)


@dataclass(frozen=True)
class OnlineStep:
    """One finalised merged decision step emitted by the online extractor.

    ``features`` is the same 14-vector a :class:`NodeFeatureTrack` row would
    carry for this step; ``is_ue`` marks terminal (UE / over-temperature)
    steps, for which the agent is not invoked.
    """

    node: int
    time: float
    features: np.ndarray
    is_ue: bool


class OnlineFeatureState:
    """Incremental, per-node equivalent of :func:`extract_node_features`.

    The offline extractors see a complete log and fold it in one pass; a
    serving daemon sees one event at a time and needs the Table 1 features
    of each merged step the moment the step closes.  This class replays the
    exact operation order of the per-event reference loop
    (``tests/core/feature_reference.py``) — the same
    left-fold float additions, the same distinct-location sets, the same
    Equation 2 look-backs — so a stream absorbed event by event produces
    rows bit-identical to the batch extractor run over any prefix of the
    same stream (pinned by the prefix-equivalence tests).  The Equation 2
    histories are plain lists searched with :func:`feature_variation`'s
    ``bisect_right``; each step bisects once per Δt and reads both the CE
    and the boot history at that index.

    Merge-group life cycle (mirrors :func:`merge_node_events`):

    * an event more than ``merge_window_seconds`` after the open group's
      first event closes that group and starts a new one;
    * a UE joins the open group and closes it immediately (no later event
      may share a group with a UE, so nothing can change the step anymore);
    * :meth:`advance_to` closes an open group once the *stream* clock passes
      ``window start + merge window`` — by then every unseen event is too
      late to join, so the step is final even though no node event arrived;
    * :meth:`flush` force-closes the open group at end of stream, matching
      how the batch extractor terminates the last group at the array end.

    Events must be absorbed in non-decreasing time order (the log is sorted;
    a live tail is too).
    """

    def __init__(self, node: int, merge_window_seconds: float = MINUTE) -> None:
        if merge_window_seconds <= 0:
            raise ValueError("merge_window_seconds must be > 0")
        self.node = int(node)
        self.merge_window_seconds = float(merge_window_seconds)

        self._ces_total = 0.0
        self._warnings_total = 0.0
        self._boots_total = 0.0
        self._last_boot_time: Optional[float] = None
        self._ranks: set = set()
        self._banks: set = set()
        self._rows: set = set()
        self._cols: set = set()
        self._dimms: set = set()

        self._hist_times: List[float] = []
        self._hist_ces: List[float] = []
        self._hist_boots: List[float] = []

        self._track_start: Optional[float] = None
        self._last_event_time: Optional[float] = None
        self._group: List[Tuple[float, int, int, int, int, int, int, int]] = []
        self._group_start = 0.0
        self._group_has_ue = False
        self._n_steps = 0

    @property
    def n_steps(self) -> int:
        """Number of merged steps finalised so far."""
        return self._n_steps

    @property
    def has_open_group(self) -> bool:
        """True while events are accumulating in an unfinalised step."""
        return bool(self._group)

    @property
    def open_group_deadline(self) -> Optional[float]:
        """Stream time at which the open group becomes final, or ``None``.

        Once the stream clock reaches this instant no future event can join
        the group, so :meth:`advance_to` will close it.
        """
        if not self._group:
            return None
        return self._group_start + self.merge_window_seconds

    def absorb(self, record: EventRecord) -> List[OnlineStep]:
        """Absorb one record (or ``ErrorLog.rows`` row); return the steps it closed."""
        return self.absorb_event(
            record.time, record.kind, record.ce_count, record.dimm,
            record.rank, record.bank, record.row, record.col,
        )

    def absorb_event(
        self,
        time: float,
        kind: int,
        ce_count: int = 0,
        dimm: int = -1,
        rank: int = -1,
        bank: int = -1,
        row: int = -1,
        col: int = -1,
    ) -> List[OnlineStep]:
        """Absorb one raw event given as plain fields (the fast path)."""
        t = float(time)
        if not math.isfinite(t):
            raise ValueError(f"node {self.node}: event time must be finite, got {t!r}")
        if self._last_event_time is not None and t < self._last_event_time:
            raise ValueError(
                f"node {self.node}: events must arrive in time order "
                f"(got {t!r} after {self._last_event_time!r})"
            )
        self._last_event_time = t
        if self._track_start is None:
            self._track_start = t

        out: List[OnlineStep] = []
        if self._group and t - self._group_start >= self.merge_window_seconds:
            out.append(self._finalize())
        if not self._group:
            self._group_start = t
        self._group.append(
            (t, int(kind), int(ce_count), int(dimm), int(rank), int(bank), int(row), int(col))
        )
        if kind in TERMINAL_KINDS:
            self._group_has_ue = True
            out.append(self._finalize())
        return out

    def absorb_log(
        self, log: ErrorLog, indices: Optional[np.ndarray] = None
    ) -> List[OnlineStep]:
        """Absorb one event batch (this node's slice of ``log``) at a time."""
        if indices is None:
            indices = np.flatnonzero(log.node == self.node)
        names = ("time", "kind", "ce_count", "dimm", "rank", "bank", "row", "col")
        out: List[OnlineStep] = []
        for fields in zip(*(getattr(log, name)[indices].tolist() for name in names)):
            out.extend(self.absorb_event(*fields))
        return out

    def advance_to(self, stream_time: float) -> List[OnlineStep]:
        """Finalise the open group once the stream clock has passed it by.

        ``stream_time`` must not exceed the time of the next event this node
        will absorb (the global stream clock satisfies this: events arrive
        across nodes in non-decreasing time order).
        """
        if self._group and (
            float(stream_time) - self._group_start >= self.merge_window_seconds
        ):
            return [self._finalize()]
        return []

    def flush(self) -> List[OnlineStep]:
        """Force-close the open group (end of stream)."""
        if self._group:
            return [self._finalize()]
        return []

    def _finalize(self) -> OnlineStep:
        group = self._group
        ces_in_step = 0.0
        for t_ev, kind, count, dimm, rank, bank, row, col in group:
            if kind == _CE:
                count_f = float(count)
                ces_in_step += count_f
                self._ces_total += count_f
                self._dimms.add(dimm)
                if rank >= 0:
                    self._ranks.add((dimm, rank))
                if bank >= 0:
                    self._banks.add((dimm, rank, bank))
                if row >= 0:
                    self._rows.add((dimm, rank, bank, row))
                if col >= 0:
                    self._cols.add((dimm, rank, bank, col))
            elif kind == _UE_WARNING:
                self._warnings_total += 1.0
            elif kind == _BOOT:
                self._boots_total += 1.0
                self._last_boot_time = t_ev

        t = group[-1][0]
        is_ue = self._group_has_ue

        if self._last_boot_time is None:
            time_since_boot = t - float(self._track_start)
        else:
            time_since_boot = t - self._last_boot_time

        ces_total = self._ces_total
        boots_total = self._boots_total
        hist_ces = self._hist_ces
        hist_boots = self._hist_boots
        # One look-back per Δt, shared by the CE and boot histories.
        minute_ago = bisect_right(self._hist_times, t - MINUTE) - 1
        hour_ago = bisect_right(self._hist_times, t - HOUR) - 1
        # Entries in FEATURE_NAMES order.
        vec = np.array(
            [
                ces_in_step,
                ces_total,
                len(self._ranks),
                len(self._banks),
                len(self._rows),
                len(self._cols),
                len(self._dimms),
                self._warnings_total,
                max(time_since_boot, 0.0),
                boots_total,
                _variation(ces_total, hist_ces, minute_ago),
                _variation(ces_total, hist_ces, hour_ago),
                _variation(boots_total, hist_boots, minute_ago),
                _variation(boots_total, hist_boots, hour_ago),
            ],
            dtype=np.float64,
        )

        self._hist_times.append(t)
        hist_ces.append(ces_total)
        hist_boots.append(boots_total)

        self._group = []
        self._group_has_ue = False
        self._n_steps += 1
        return OnlineStep(node=self.node, time=t, features=vec, is_ue=is_ue)


def build_feature_tracks(
    log: ErrorLog, merge_window_seconds: float = MINUTE
) -> Dict[int, NodeFeatureTrack]:
    """Compute feature tracks for every node present in ``log``."""
    return {
        node: extract_node_features(log, node, indices, merge_window_seconds)
        for node, indices in log.node_slices().items()
    }


class StateNormalizer:
    """Deterministic scaling of the state vector fed to the Q-network.

    Counts, times and costs span several orders of magnitude, so they are
    compressed with ``log1p``; the Equation 2 variation ratios are already
    dimensionless and are only clipped.  The transform is fixed (not fitted)
    so there is no risk of leaking test-set statistics into training.
    """

    #: Features passed through untransformed (only clipped).
    RATIO_FEATURES = (
        "ces_total_var_1min",
        "ces_total_var_1hour",
        "boots_var_1min",
        "boots_var_1hour",
    )

    def __init__(self, ratio_clip: float = 50.0) -> None:
        if ratio_clip <= 0:
            raise ValueError("ratio_clip must be > 0")
        self.ratio_clip = float(ratio_clip)
        # The feature columns as maximal runs of one kind: (columns, is_ratio).
        self._runs: List[Tuple[slice, bool]] = []
        start = 0
        kinds = (name in self.RATIO_FEATURES for name in FEATURE_NAMES)
        for is_ratio, run in groupby(kinds):
            stop = start + len(list(run))
            self._runs.append((slice(start, stop), is_ratio))
            start = stop

    @property
    def state_dim(self) -> int:
        """Dimensionality of the normalised state (features + UE cost)."""
        return N_FEATURES + 1

    def state_vector(self, features: np.ndarray, ue_cost: float) -> np.ndarray:
        """Build and normalise the full state vector (features ‖ UE cost)."""
        state = np.concatenate([np.asarray(features, dtype=float), [float(ue_cost)]])
        return self.transform(state)

    def transform(self, state: np.ndarray) -> np.ndarray:
        """Normalise a raw state vector (or batch of them)."""
        state = np.asarray(state, dtype=float)
        out = np.empty(state.shape)
        self.transform_features(state[..., :-1], out=out[..., :-1])
        np.log1p(np.maximum(state[..., -1], 0.0), out=out[..., -1])
        return out

    def transform_features(
        self, features: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """:meth:`transform` of the telemetry features alone (no UE-cost entry).

        Element-wise, so a row normalised here equals the same columns of
        its normalised state; ``out`` (e.g. the feature columns of a state
        batch) receives the result when given.
        """
        features = np.asarray(features, dtype=float)
        if features.shape[-1] != N_FEATURES:
            raise ValueError(
                f"expected {N_FEATURES} telemetry features, got {features.shape[-1]}"
            )
        if out is None:
            out = np.empty(features.shape)
        for cols, is_ratio in self._runs:
            if is_ratio:
                np.clip(features[..., cols], 0.0, self.ratio_clip, out=out[..., cols])
            else:
                np.log1p(np.maximum(features[..., cols], 0.0), out=out[..., cols])
        return out
