"""Boundary ties of the bisect look-backs against a numpy oracle.

Equation 2's look-back (:func:`feature_variation`, shared by the online
extractor) and :meth:`NodeJobTimeline.job_at` bisect plain Python lists with
``bisect.bisect_right``.  The rule they must keep is numpy's
``searchsorted(side="right")`` over the same sorted values, kept here as the
oracle.  The cases sit exactly on its ties: duplicate history times, queries
exactly one minute or one hour after an entry, queries at a job start, before
the first job and past the horizon.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.features import feature_variation
from repro.utils.timeutils import HOUR, MINUTE
from repro.workload.sampling import NodeJobTimeline


def _variation_oracle(history_times, history_values, now, value_now, delta):
    """Equation 2 with the look-back as ``searchsorted(side="right")``."""
    times = np.asarray(history_times, dtype=np.float64)
    idx = int(times.searchsorted(now - delta, side="right")) - 1
    past = history_values[idx] if idx >= 0 else 0.0
    if past == 0.0:
        return 0.0
    return float(value_now) / float(past)


def _job_at_oracle(timeline, t):
    """``job_at`` with the look-up as ``searchsorted(side="right")``."""
    idx = int(timeline.starts.searchsorted(t, side="right")) - 1
    idx = max(0, min(idx, len(timeline.starts) - 1))
    return float(timeline.starts[idx]), float(timeline.n_nodes[idx])


def _same(a: float, b: float) -> bool:
    """Bitwise float equality (``hex`` keeps the sign of zero)."""
    return a.hex() == b.hex()


#: A history with duplicate times and entries exactly one minute and one
#: hour apart; cumulative values start at zero (the Equation 2 zero guard).
HISTORY_TIMES = [
    0.0, 60.0, 60.0, 60.0, 120.0, 3600.0, 3600.0, 3660.0, 7200.0, 7260.0
]
HISTORY_VALUES = [0.0, 1.0, 3.0, 4.0, 4.0, 9.0, 10.0, 12.0, 12.0, 20.0]


def _queries(times):
    """Every history time plus one minute / one hour, exactly and one ulp off."""
    out = [-HOUR, 0.0, MINUTE, HOUR]
    for t in times:
        for delta in (0.0, MINUTE, HOUR):
            exact = t + delta
            out += [exact, math.nextafter(exact, -math.inf)]
            out.append(math.nextafter(exact, math.inf))
    return out


@pytest.mark.parametrize("delta", [MINUTE, HOUR])
def test_feature_variation_ties_match_searchsorted(delta):
    value_now = 21.0
    for now in _queries(HISTORY_TIMES):
        got = feature_variation(HISTORY_TIMES, HISTORY_VALUES, now, value_now, delta)
        want = _variation_oracle(HISTORY_TIMES, HISTORY_VALUES, now, value_now, delta)
        assert _same(got, want), (now, delta, got, want)


def test_feature_variation_queries_exactly_one_delta_after_a_duplicate():
    # now - 60 s lands on the three entries at t = 60 s: the look-back must
    # take the last of them (value 4), as side="right" does.
    assert feature_variation(HISTORY_TIMES, HISTORY_VALUES, 120.0, 8.0, MINUTE) == 2.0
    # now - 1 h lands on the two entries at t = 3600 s: the last one (10).
    assert feature_variation(HISTORY_TIMES, HISTORY_VALUES, 7200.0, 20.0, HOUR) == 2.0
    # now - 1 h lands on t = 0, whose value is 0: the ratio is 0.
    assert feature_variation(HISTORY_TIMES, HISTORY_VALUES, 3600.0, 10.0, HOUR) == 0.0


@pytest.mark.parametrize("seed", range(20))
def test_feature_variation_random_tied_histories_match_searchsorted(seed):
    rng = np.random.default_rng(seed)
    # Times on a 30 s grid: duplicates and exact one-minute gaps are common.
    times = np.sort(rng.integers(0, 400, size=int(rng.integers(0, 40)))) * 30.0
    values = np.cumsum(rng.integers(0, 3, size=len(times))).astype(float)
    times_list, values_list = times.tolist(), values.tolist()
    for now in _queries(times_list):
        for delta in (MINUTE, HOUR):
            got = feature_variation(times_list, values_list, now, 7.0, delta)
            want = _variation_oracle(times_list, values_list, now, 7.0, delta)
            assert _same(got, want), (seed, now, delta)


def _timeline(starts, n_nodes):
    starts = np.asarray(starts, dtype=float)
    durations = np.append(np.diff(starts), HOUR)
    return NodeJobTimeline(
        starts=starts, durations=durations, n_nodes=np.asarray(n_nodes)
    )


@pytest.mark.parametrize(
    "starts, n_nodes",
    [
        ([0.0], [4.0]),
        ([-1800.0, 0.0, 3600.0, 7200.0], [2.0, 8.0, 1.0, 64.0]),
        # A zero-length job: two jobs start at the same instant.
        ([-10.0, 3600.0, 3600.0, 5400.0], [3.0, 5.0, 7.0, 9.0]),
        # Integer node counts are returned as floats, like the array path.
        ([100.0, 160.0, 220.0], [1, 512, 16]),
    ],
)
def test_job_at_ties_match_searchsorted(starts, n_nodes):
    timeline = _timeline(starts, n_nodes)
    queries = [-math.inf, -1e12, starts[0] - 1.0, 1e12, math.inf]
    for start in starts:
        queries += [start, math.nextafter(start, -math.inf)]
        queries.append(math.nextafter(start, math.inf))
    for t in queries:
        got = timeline.job_at(t)
        want = _job_at_oracle(timeline, t)
        assert all(type(x) is float for x in got), (t, got)
        assert all(_same(a, b) for a, b in zip(got, want)), (t, got, want)


def test_job_at_before_the_first_job_and_past_the_horizon():
    timeline = _timeline([0.0, 3600.0, 7200.0], [2.0, 8.0, 1.0])
    assert timeline.job_at(-5.0) == (0.0, 2.0)
    assert timeline.job_at(3600.0) == (3600.0, 8.0)
    assert timeline.job_at(1e9) == (7200.0, 1.0)
