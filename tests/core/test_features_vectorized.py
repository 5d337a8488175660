"""Equivalence suite: vectorized feature extraction vs the reference loop.

``extract_node_features`` was rewritten with cumulative array operations;
``extract_node_features_loop`` (``feature_reference.py``) keeps the
original per-event accumulation as the behavioural specification.  Both
must agree *bit for bit* on fuzzed
synthetic logs — the feature tracks feed every model downstream, so a
single differing ulp would eventually surface as a golden-fingerprint
drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.core.features import N_FEATURES, extract_node_features
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.generator import TelemetryGenerator
from repro.telemetry.records import EventKind
from repro.telemetry.reduction import prepare_log

from .feature_reference import extract_node_features_loop


def _assert_tracks_identical(log, merge_window=60.0):
    for node, indices in log.node_slices().items():
        loop = extract_node_features_loop(log, node, indices, merge_window)
        vectorized = extract_node_features(log, node, indices, merge_window)
        assert np.array_equal(loop.times, vectorized.times), node
        assert np.array_equal(loop.is_ue, vectorized.is_ue), node
        assert np.array_equal(loop.features, vectorized.features), (
            node,
            np.argwhere(loop.features != vectorized.features)[:5],
        )


@pytest.mark.parametrize("seed", [3, 17, 101])
def test_fuzzed_generated_logs_extract_identically(seed):
    scenario = ScenarioConfig.small(seed=seed)
    log = TelemetryGenerator(
        scenario.topology,
        scenario.fault_model,
        30 * 86400.0,
        seed=seed,
    ).generate()
    reduced, _ = prepare_log(log, scenario.evaluation.ue_burst_window_seconds)
    _assert_tracks_identical(reduced)


def test_session_log_extracts_identically(reduced_error_log):
    _assert_tracks_identical(reduced_error_log)


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


def test_handcrafted_edge_log_extracts_identically():
    """Boots, warnings, missing rank/bank coordinates, bursts, and UEs."""
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
        ],
        dtype=np.int8,
    )
    log = _log_from_columns(
        time=np.array(
            [0.0, 30.0, 45.0, 3600.0, 3620.0, 3640.0, 7200.0, 7260.0, 9000.0, 9030.0]
        ),
        kind=kind,
        ce_count=np.array([0, 3, 2, 1, 0, 4, 0, 2, 0, 7], dtype=np.int64),
        dimm=np.array([0, 1, 1, 2, 0, 1, 0, 2, 0, 1], dtype=np.int64),
        rank=np.array([-1, 0, 0, 1, -1, -1, -1, 1, -1, 0], dtype=np.int32),
        bank=np.array([-1, 2, -1, 0, -1, 2, -1, 0, -1, 2], dtype=np.int32),
        row=np.array([-1, 7, -1, 5, -1, -1, -1, 5, -1, 8], dtype=np.int64),
        col=np.array([-1, -1, 3, 1, -1, 9, -1, 1, -1, -1], dtype=np.int64),
    )
    _assert_tracks_identical(log)
    track = extract_node_features(log, 0)
    assert track.features.shape[1] == N_FEATURES
    assert track.is_ue.any()


def test_empty_node_yields_empty_track():
    log = _log_from_columns(
        time=np.array([10.0]),
        kind=np.array([EventKind.CE], dtype=np.int8),
        ce_count=np.array([1], dtype=np.int64),
        node=np.array([3], dtype=np.int64),
    )
    track = extract_node_features(log, node=99)
    reference = extract_node_features_loop(log, node=99)
    assert len(track) == 0 and len(reference) == 0
    assert track.features.shape == (0, N_FEATURES)
