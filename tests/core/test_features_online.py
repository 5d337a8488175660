"""Equivalence suite: OnlineFeatureState vs the batch extractor.

The serving daemon consumes events one at a time, so ``OnlineFeatureState``
re-implements the merge + feature fold incrementally.  Its output must be
*bit-identical* to ``extract_node_features`` over every prefix of the same
event stream — any drift would break the serve-vs-offline decision
equivalence that the whole online path is built on.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.features import (
    N_FEATURES,
    OnlineFeatureState,
    extract_node_features,
)
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.records import EventKind


def _log_from_columns(**columns):
    length = len(columns["time"])
    defaults = dict(
        node=np.zeros(length, dtype=np.int64),
        dimm=np.zeros(length, dtype=np.int64),
        ce_count=np.zeros(length, dtype=np.int64),
        rank=np.full(length, -1, dtype=np.int32),
        bank=np.full(length, -1, dtype=np.int32),
        row=np.full(length, -1, dtype=np.int64),
        col=np.full(length, -1, dtype=np.int64),
        scrubber=np.zeros(length, dtype=bool),
        manufacturer=np.zeros(length, dtype=np.int8),
    )
    defaults.update(columns)
    return ErrorLog(**defaults)


def _edge_log():
    """Boots, warnings, missing coordinates, merge-window bursts, UEs."""
    kind = np.array(
        [
            EventKind.BOOT,
            EventKind.CE,
            EventKind.CE,
            EventKind.CE,
            EventKind.UE_WARNING,
            EventKind.CE,
            EventKind.UE,
            EventKind.CE,
            EventKind.BOOT,
            EventKind.CE,
            EventKind.OVERTEMP,
            EventKind.CE,
        ],
        dtype=np.int8,
    )
    return _log_from_columns(
        time=np.array(
            [
                0.0, 30.0, 45.0, 3600.0, 3620.0, 3640.0, 7200.0, 7260.0,
                9000.0, 9030.0, 9031.5, 9031.500001,
            ]
        ),
        kind=kind,
        ce_count=np.array([0, 3, 2, 1, 0, 4, 0, 2, 0, 7, 0, 5], dtype=np.int64),
        dimm=np.array([0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 0, 2], dtype=np.int64),
        rank=np.array([-1, 0, 0, 1, -1, -1, -1, 1, -1, 0, -1, 1], dtype=np.int32),
        bank=np.array([-1, 2, -1, 0, -1, 2, -1, 0, -1, 2, -1, 0], dtype=np.int32),
        row=np.array([-1, 7, -1, 5, -1, -1, -1, 5, -1, 8, -1, 5], dtype=np.int64),
        col=np.array([-1, -1, 3, 1, -1, 9, -1, 1, -1, -1, -1, 1], dtype=np.int64),
    )


def _steps_arrays(steps):
    times = np.array([s.time for s in steps], dtype=np.float64)
    is_ue = np.array([s.is_ue for s in steps], dtype=bool)
    features = (
        np.stack([s.features for s in steps])
        if steps
        else np.zeros((0, N_FEATURES))
    )
    return times, is_ue, features


def _assert_steps_match_track(steps, track, context=""):
    times, is_ue, features = _steps_arrays(steps)
    assert np.array_equal(times, track.times), context
    assert np.array_equal(is_ue, track.is_ue), context
    assert np.array_equal(features, track.features), (
        context,
        np.argwhere(features != track.features)[:5],
    )


def _assert_prefix_equivalence(log, node, indices, merge_window=60.0):
    """Online absorb of every prefix must equal the batch extractor on it."""
    state = OnlineFeatureState(node, merge_window)
    emitted = []
    for k in range(1, len(indices) + 1):
        idx = int(indices[k - 1])
        emitted.extend(
            state.absorb_event(
                float(log.time[idx]),
                int(log.kind[idx]),
                ce_count=int(log.ce_count[idx]),
                dimm=int(log.dimm[idx]),
                rank=int(log.rank[idx]),
                bank=int(log.bank[idx]),
                row=int(log.row[idx]),
                col=int(log.col[idx]),
            )
        )
        snapshot = copy.deepcopy(state)
        rows = emitted + snapshot.flush()
        reference = extract_node_features(log, node, indices[:k], merge_window)
        _assert_steps_match_track(rows, reference, context=(node, k))


def test_edge_log_prefixes_match_batch_extractor():
    log = _edge_log()
    for node, indices in log.node_slices().items():
        _assert_prefix_equivalence(log, node, indices)


def test_events_one_window_and_one_hour_apart_match_batch_extractor():
    """Every look-back lands exactly on an earlier step.

    Each event comes exactly one merge window after the previous one (so it
    opens a new step) or exactly one hour after an earlier step, so the
    Equation 2 look-backs ``t - 60 s`` and ``t - 3600 s`` tie with a history
    entry whose value is non-zero, for the CE and the boot histories alike.
    """
    rows = [  # (time, kind, ce_count)
        (0.0, EventKind.BOOT, 0),
        (0.0, EventKind.CE, 2),
        (60.0, EventKind.CE, 1),
        (120.0, EventKind.BOOT, 0),
        (180.0, EventKind.CE, 3),
        (3780.0, EventKind.CE, 1),  # 180 s + 1 h
        (3840.0, EventKind.BOOT, 0),  # one window later
        (7440.0, EventKind.CE, 2),  # 3840 s + 1 h
        (7500.0, EventKind.UE, 0),
        (7560.0, EventKind.CE, 1),
        (11160.0, EventKind.CE, 4),  # 7560 s + 1 h
    ]
    times, kinds, counts = zip(*rows)
    log = _log_from_columns(
        time=np.array(times),
        kind=np.array(kinds, dtype=np.int8),
        ce_count=np.array(counts, dtype=np.int64),
    )
    for node, indices in log.node_slices().items():
        _assert_prefix_equivalence(log, node, indices)
    track = extract_node_features(log, 0)
    assert len(track) == len(rows) - 1  # only the two events at t = 0 merge
    assert np.all(track.features[1:, -4:].any(axis=1))


def test_generated_log_prefixes_match_batch_extractor(reduced_error_log):
    log = reduced_error_log
    checked = 0
    for node, indices in log.node_slices().items():
        if len(indices) < 4:
            continue
        _assert_prefix_equivalence(log, node, indices[:120])
        checked += 1
        if checked == 5:
            break
    assert checked == 5


def test_absorb_log_batches_equal_per_event_absorb(reduced_error_log):
    log = reduced_error_log
    node, indices = max(log.node_slices().items(), key=lambda kv: len(kv[1]))
    batched = OnlineFeatureState(node)
    # Split the node's slice into uneven batches: absorbing batch-at-a-time
    # must behave exactly like event-at-a-time.
    cuts = [0, 1, 7, len(indices) // 2, len(indices)]
    steps = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        steps.extend(batched.absorb_log(log, indices[lo:hi]))
    steps.extend(batched.flush())
    _assert_steps_match_track(steps, extract_node_features(log, node, indices))


def test_advance_to_does_not_change_the_step_sequence(reduced_error_log):
    """Clock-driven finalisation emits the same steps, just earlier.

    Replays the log globally in time order, absorbing each event into its
    node's state and then advancing *every* node to the global stream clock
    — exactly what the serving loop does — and compares against per-node
    absorb + flush with no clock at all.
    """
    nodes = sorted(reduced_error_log.node_slices(), key=int)[:8]
    log = reduced_error_log.filter_nodes(nodes)
    clocked = {node: OnlineFeatureState(node) for node in nodes}
    clocked_steps = {node: [] for node in nodes}
    for idx in range(len(log)):
        node = int(log.node[idx])
        t = float(log.time[idx])
        clocked_steps[node].extend(
            clocked[node].absorb_event(
                t,
                int(log.kind[idx]),
                ce_count=int(log.ce_count[idx]),
                dimm=int(log.dimm[idx]),
                rank=int(log.rank[idx]),
                bank=int(log.bank[idx]),
                row=int(log.row[idx]),
                col=int(log.col[idx]),
            )
        )
        # The global clock never exceeds the next event of any node, so
        # advancing every state to it is always safe.
        for other in nodes:
            clocked_steps[other].extend(clocked[other].advance_to(t))
    for node, indices in log.node_slices().items():
        steps = clocked_steps[node] + clocked[node].flush()
        _assert_steps_match_track(
            steps, extract_node_features(log, node, indices), context=node
        )


def test_ue_closes_its_group_immediately():
    state = OnlineFeatureState(node=0)
    assert state.absorb_event(10.0, int(EventKind.CE), ce_count=2, dimm=1) == []
    steps = state.absorb_event(20.0, int(EventKind.UE))
    assert len(steps) == 1
    assert steps[0].is_ue and steps[0].time == 20.0
    assert not state.has_open_group
    assert state.n_steps == 1


def test_overtemp_counts_as_ue():
    state = OnlineFeatureState(node=0)
    steps = state.absorb_event(5.0, int(EventKind.OVERTEMP))
    assert len(steps) == 1 and steps[0].is_ue


def test_open_group_deadline_and_advance_to():
    state = OnlineFeatureState(node=0, merge_window_seconds=60.0)
    assert state.open_group_deadline is None
    state.absorb_event(100.0, int(EventKind.CE), ce_count=1, dimm=0)
    assert state.open_group_deadline == 160.0
    assert state.advance_to(159.999) == []
    steps = state.advance_to(160.0)  # boundary: times[i] - start < window fails
    assert len(steps) == 1
    assert steps[0].time == 100.0 and not steps[0].is_ue
    assert state.open_group_deadline is None


def test_out_of_order_events_rejected():
    state = OnlineFeatureState(node=0)
    state.absorb_event(100.0, int(EventKind.CE), ce_count=1)
    with pytest.raises(ValueError, match="time order"):
        state.absorb_event(99.0, int(EventKind.CE), ce_count=1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_event_time_rejected(bad):
    # NaN would slip past the time-order check and every later one.
    state = OnlineFeatureState(node=0)
    state.absorb_event(100.0, int(EventKind.CE), ce_count=1)
    with pytest.raises(ValueError, match="finite"):
        state.absorb_event(bad, int(EventKind.CE), ce_count=1)


def test_invalid_merge_window_rejected():
    with pytest.raises(ValueError, match="merge_window_seconds"):
        OnlineFeatureState(node=0, merge_window_seconds=0.0)
