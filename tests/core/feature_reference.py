"""Scalar reference oracle of the Table 1 feature extraction.

``repro.core.features.extract_node_features`` computes a node's feature
track with cumulative array operations; this per-event loop is the
original accumulation it must reproduce bit for bit
(``tests/core/test_features_vectorized.py``), and the baseline of the
decision-core benchmark's ``feature_speedup``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.features import (
    FEATURE_INDEX,
    N_FEATURES,
    NodeFeatureTrack,
    feature_variation,
)
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.merging import merge_node_events
from repro.telemetry.records import EventKind
from repro.utils.timeutils import HOUR, MINUTE


def extract_node_features_loop(
    log: ErrorLog,
    node: int,
    indices: Optional[np.ndarray] = None,
    merge_window_seconds: float = MINUTE,
) -> NodeFeatureTrack:
    """Per-event reference implementation of ``extract_node_features``.

    The behavioural specification of the vectorized path: the equivalence
    suite and the decision-core benchmark compare the two bit for bit on
    fuzzed logs, and ``OnlineFeatureState`` replays its operation order.
    """
    if indices is None:
        indices = np.flatnonzero(log.node == node)
    merged = merge_node_events(log, indices, merge_window_seconds)

    times = np.empty(len(merged))
    features = np.zeros((len(merged), N_FEATURES))
    is_ue = np.zeros(len(merged), dtype=bool)

    ces_total = 0.0
    warnings_total = 0.0
    boots_total = 0.0
    last_boot_time: Optional[float] = None
    ranks: set = set()
    banks: set = set()
    rows: set = set()
    cols: set = set()
    dimms: set = set()

    # Histories of the cumulative features used by Equation 2.
    hist_times: List[float] = []
    hist_ces: List[float] = []
    hist_boots: List[float] = []

    track_start = float(log.time[indices[0]]) if len(merged) else 0.0

    for i, step in enumerate(merged):
        ces_in_step = 0.0
        for idx in step.indices:
            kind = EventKind(int(log.kind[idx]))
            if kind == EventKind.CE:
                count = float(log.ce_count[idx])
                ces_in_step += count
                ces_total += count
                dimm = int(log.dimm[idx])
                dimms.add(dimm)
                if log.rank[idx] >= 0:
                    ranks.add((dimm, int(log.rank[idx])))
                if log.bank[idx] >= 0:
                    banks.add((dimm, int(log.rank[idx]), int(log.bank[idx])))
                if log.row[idx] >= 0:
                    rows.add((dimm, int(log.rank[idx]), int(log.bank[idx]), int(log.row[idx])))
                if log.col[idx] >= 0:
                    cols.add((dimm, int(log.rank[idx]), int(log.bank[idx]), int(log.col[idx])))
            elif kind == EventKind.UE_WARNING:
                warnings_total += 1.0
            elif kind == EventKind.BOOT:
                boots_total += 1.0
                last_boot_time = float(log.time[idx])

        t = step.time
        times[i] = t
        is_ue[i] = step.is_ue

        if last_boot_time is None:
            time_since_boot = t - track_start
        else:
            time_since_boot = t - last_boot_time

        vec = features[i]
        vec[FEATURE_INDEX["ces_since_last_event"]] = ces_in_step
        vec[FEATURE_INDEX["ces_total"]] = ces_total
        vec[FEATURE_INDEX["ranks_with_ce"]] = len(ranks)
        vec[FEATURE_INDEX["banks_with_ce"]] = len(banks)
        vec[FEATURE_INDEX["rows_with_ce"]] = len(rows)
        vec[FEATURE_INDEX["cols_with_ce"]] = len(cols)
        vec[FEATURE_INDEX["dimms_with_ce"]] = len(dimms)
        vec[FEATURE_INDEX["ue_warnings_total"]] = warnings_total
        vec[FEATURE_INDEX["time_since_boot"]] = max(time_since_boot, 0.0)
        vec[FEATURE_INDEX["boots_total"]] = boots_total
        vec[FEATURE_INDEX["ces_total_var_1min"]] = feature_variation(
            hist_times, hist_ces, t, ces_total, MINUTE
        )
        vec[FEATURE_INDEX["ces_total_var_1hour"]] = feature_variation(
            hist_times, hist_ces, t, ces_total, HOUR
        )
        vec[FEATURE_INDEX["boots_var_1min"]] = feature_variation(
            hist_times, hist_boots, t, boots_total, MINUTE
        )
        vec[FEATURE_INDEX["boots_var_1hour"]] = feature_variation(
            hist_times, hist_boots, t, boots_total, HOUR
        )

        hist_times.append(t)
        hist_ces.append(ces_total)
        hist_boots.append(boots_total)

    return NodeFeatureTrack(node=int(node), times=times, features=features, is_ue=is_ue)
