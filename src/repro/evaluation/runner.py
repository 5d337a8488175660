"""Policy roll-out over the test portion of the error log.

Every policy is replayed over exactly the same per-node *evaluation traces*:
the merged telemetry events of the test range plus a job timeline sampled
once per node (deterministically from the scenario seed), so that all
approaches are charged against identical UEs and identical job states.  The
runner accumulates the cost–benefit breakdown of Section 4.3 and the
classical ML confusion counts of Section 4.4.

Replay is vectorized (the *decision core*).  The traces of a replay form
one *panel*, their events concatenated in order; ``prepare_traces`` hands
it to the policy once, and ``MitigationPolicy.decide_rows`` answers any
rows of it.  The first call asks for every row under the no-mitigation
cost baseline, and the cost accounting becomes a segmented scan over the
resulting decision mask — the mitigation-dependent UE-cost resets are
reconstructed from forward-filled last-mitigation/last-UE indices instead
of being carried event by event.  Policies whose decisions *feed back* into
the potential UE cost (``cost_dependent`` — the RL agent and Myopic-RF —
with restartable jobs) are resolved through a renewal walk: decisions are
batch-computed under the running last-mitigation assumption and re-batched
only over the remainder of the job a fresh mitigation actually affects.
The walk runs in *lockstep* across the whole panel: every trace keeps a
frontier cursor, each round asks one ``decide_rows`` call for the open
speculative windows of all traces (and runs one segmented cost
computation), and traces retire from the frontier as they finish — so the
per-window Python and dispatch overhead is paid once per *round* instead of
once per window.  A policy that declines ``decide_rows`` anywhere (a
user-registered policy that only implements ``decide()``) gets its mask
from one sequential ``decide()`` loop per trace instead, with the same
mitigation-cost feedback.  Either way the replay resolves one decision
mask, and one accounting scores it.  Every floating-point operation is
applied element-wise in the order of the per-event reference replay
(totals fold with ``np.add.accumulate``), so results are bit-identical to
it; that replay is the oracle of ``tests/evaluation/replay_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.features import NodeFeatureTrack
from repro.core.policies import DecisionContext, MitigationPolicy
from repro.evaluation.costs import CostBreakdown
from repro.evaluation.metrics import ConfusionCounts
from repro.utils.rng import RngFactory
from repro.utils.timeutils import DAY, HOUR
from repro.utils.validation import check_non_negative, check_positive
from repro.workload.sampling import JobSequenceSampler, NodeJobTimeline

@dataclass(frozen=True)
class EvaluationTrace:
    """Replayable test-range trace of one node."""

    node: int
    times: np.ndarray
    features: np.ndarray
    is_ue: np.ndarray
    is_last_before_ue: np.ndarray
    timeline: NodeJobTimeline

    def __post_init__(self) -> None:
        n = len(self.times)
        if not (
            len(self.features) == n
            and len(self.is_ue) == n
            and len(self.is_last_before_ue) == n
        ):
            raise ValueError("trace arrays must be aligned")

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def n_ues(self) -> int:
        return int(np.count_nonzero(self.is_ue))

    @property
    def n_decision_points(self) -> int:
        return int(np.count_nonzero(~self.is_ue))


@dataclass(frozen=True)
class PolicyEvaluation:
    """Outcome of replaying one policy over a set of traces."""

    policy_name: str
    costs: CostBreakdown
    confusion: ConfusionCounts
    n_traces: int
    n_decision_points: int

    @property
    def total_cost(self) -> float:
        """Total lost node–hours."""
        return self.costs.total

    def to_dict(self) -> Dict:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        from repro.serialization import tag

        return tag(
            "policy_evaluation",
            {
                "policy_name": self.policy_name,
                "costs": self.costs.to_dict(),
                "confusion": self.confusion.to_dict(),
                "n_traces": self.n_traces,
                "n_decision_points": self.n_decision_points,
            },
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "PolicyEvaluation":
        """Inverse of :meth:`to_dict`."""
        from repro.serialization import untag

        payload = untag(data, "policy_evaluation")
        return cls(
            policy_name=payload["policy_name"],
            costs=CostBreakdown.from_dict(payload["costs"]),
            confusion=ConfusionCounts.from_dict(payload["confusion"]),
            n_traces=payload["n_traces"],
            n_decision_points=payload["n_decision_points"],
        )


def build_traces(
    tracks: Dict[int, NodeFeatureTrack],
    job_sampler: JobSequenceSampler,
    t_start: float,
    t_end: float,
    seed: int = 0,
    oracle_window_seconds: float = DAY,
) -> List[EvaluationTrace]:
    """Build per-node evaluation traces for the ``[t_start, t_end)`` range.

    The job timeline of each node is sampled with an RNG derived from
    ``seed`` and the node id, so repeated calls (and different policies)
    see identical workloads.

    ``oracle_window_seconds`` bounds the Oracle hint: an event is flagged as
    "last event before a UE" only when the UE follows within that window
    (the paper's Oracle performs exactly one mitigation per *predictable* UE
    — UEs with no event in the preceding day are not mitigated by any
    event-triggered policy, including the Oracle).
    """
    check_positive("time range", t_end - t_start)
    factory = RngFactory(seed)
    traces: List[EvaluationTrace] = []
    for node in sorted(tracks):
        track = tracks[node].slice_time(t_start, t_end)
        if len(track) == 0:
            continue
        is_last_before_ue = np.zeros(len(track), dtype=bool)
        if len(track) > 1:
            is_last_before_ue[:-1] = (
                track.is_ue[1:]
                & ~track.is_ue[:-1]
                & (np.diff(track.times) <= oracle_window_seconds)
            )
        timeline = job_sampler.sample_timeline(
            t_start, t_end, rng=factory.stream(f"node-{node}")
        )
        traces.append(
            EvaluationTrace(
                node=node,
                times=track.times,
                features=track.features,
                is_ue=track.is_ue,
                is_last_before_ue=is_last_before_ue,
                timeline=timeline,
            )
        )
    return traces


@dataclass(frozen=True)
class _ReplayTally:
    """Counts and UE-cost total of one accounted replay (zero when empty).

    ``ue_cost`` left-folds the per-UE costs in panel order with
    ``np.add.accumulate``, an exact ordered fold.
    """

    n_ues: int = 0
    n_mitigations: int = 0
    n_decision_points: int = 0
    true_positives: int = 0
    n_ues_without_preceding_event: int = 0
    ue_cost: float = 0.0


def _timeline_job_arrays(
    trace: EvaluationTrace,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-event ``(job_start, job_n_nodes)`` — vectorized ``timeline.job_at``.

    Memoised on the (immutable) trace: the arrays are a pure function of the
    trace's event times and job timeline, and every policy × restartable
    combination of a replay panel asks for the same ones.
    """
    cached = trace.__dict__.get("_job_arrays")
    if cached is not None:
        return cached
    timeline = trace.timeline
    position = np.searchsorted(timeline.starts, trace.times, side="right") - 1
    position = np.clip(position, 0, len(timeline.starts) - 1)
    arrays = (timeline.starts[position], timeline.n_nodes[position])
    object.__setattr__(trace, "_job_arrays", arrays)
    return arrays


def _concat_ranges(
    starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(start, stop)`` index runs, vectorized.

    Returns ``(rows, widths)`` where ``rows`` is the concatenation of every
    window's index range (the panel rows of one lockstep round, gathered
    out of the panel-wide arrays in a single fancy-index operation) and
    ``widths`` the per-window lengths.
    """
    widths = stops - starts
    total = int(widths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), widths
    bounds = np.empty(widths.size + 1, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(widths, out=bounds[1:])
    pos = np.arange(total, dtype=np.int64)
    rows = pos - np.repeat(bounds[:-1] - starts, widths)
    return rows, widths


def _decide_rows(
    policy: MitigationPolicy,
    rows: np.ndarray,
    costs: np.ndarray,
    is_ue: np.ndarray,
) -> Optional[np.ndarray]:
    """The policy's decisions at panel ``rows``, forced False at UE events.

    ``costs`` and ``is_ue`` are aligned with ``rows``.  Returns ``None``
    when the policy declines, sending the caller down the ``decide()`` loop.
    """
    result = policy.decide_rows(rows, costs)
    if result is None:
        return None
    decisions = np.asarray(result, dtype=bool)
    if decisions.shape != rows.shape:
        raise ValueError(
            f"decide_rows of {policy.name!r} returned shape "
            f"{decisions.shape}, expected {rows.shape}"
        )
    return decisions & ~is_ue


#: Window-scheduling knobs of the lockstep walk.  Pure performance tuning:
#: the resolved mask is the unique fixpoint of the confirm-prefix rule, so
#: any window size or retry policy yields the same decisions (pinned by the
#: equivalence suite against the per-event reference replay); only the
#: number of rounds and the batched rows per round move.  ``_WALK_CHUNK``
#: is the fresh window width (doubled on fully consumed windows, reset at
#: the next baseline-regime mitigation).  Partially consumed windows hand the unconfirmed suffix of
#: their observed decisions to the next window as its initial guess (a
#: "seeded" window) — the informative part of a classical fixpoint retry
#: without re-deciding the already-final prefix; seeds shorter than the
#: chunk are padded with the precomputed candidate decisions.
_WALK_CHUNK = 48


def renewal_walk_stats() -> Dict[str, int]:
    """The lockstep renewal walk's :mod:`repro.obs` counters: ``rounds``
    counts its ``decide_rows`` calls, ``windows`` the windows submitted in
    them, ``retries`` the seeded continuation windows among those."""
    return obs.counters("renewal_walk", ("rounds", "windows", "retries"))


@dataclass
class _PanelArrays:
    """Panel-concatenated event arrays of one replay.

    Built once per replay — the panel whose rows the policy's
    ``decide_rows`` answers — and shared by the lockstep walk and the panel
    accounting; ``bounds[k]:bounds[k+1]`` is trace ``k``'s row range.
    ``candidates`` (the whole-panel decision mask under the no-mitigation
    cost baseline) is attached once the policy has answered.
    """

    bounds: np.ndarray
    times: np.ndarray
    is_ue: np.ndarray
    job_start: np.ndarray
    job_nodes: np.ndarray
    candidates: Optional[np.ndarray] = None


def _panel_arrays(traces: Sequence[EvaluationTrace]) -> _PanelArrays:
    """Concatenate a (non-empty) panel's per-trace arrays."""
    job_arrays = [_timeline_job_arrays(trace) for trace in traces]
    lengths = np.fromiter(
        (len(trace) for trace in traces), dtype=np.int64, count=len(traces)
    )
    bounds = np.empty(len(traces) + 1, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(lengths, out=bounds[1:])
    return _PanelArrays(
        bounds=bounds,
        times=np.concatenate([trace.times for trace in traces]),
        is_ue=np.concatenate(
            [np.asarray(trace.is_ue, dtype=bool) for trace in traces]
        ),
        job_start=np.concatenate([starts for starts, _ in job_arrays]),
        job_nodes=np.concatenate([nodes for _, nodes in job_arrays]),
    )


class _Frontier:
    """Per-trace cursor state of the lockstep renewal walk.

    Replays the renewal walk of one trace — the same two regimes, window
    guesses, and chunk doubling as the historical per-trace walk — but
    pauses whenever a speculative window needs the policy, so the runner
    can answer every paused trace's window with one batched ``decide_rows``
    call per round.
    """

    __slots__ = (
        "n",
        "times",
        "is_ue",
        "job_start",
        "resolved",
        "breaks",
        "candidates",
        "pointer",
        "i0",
        "stop",
        "last_mitigation",
        "chunk",
        "guess",
        "leftover",
        "base",
    )

    def __init__(
        self,
        base: int,
        times: np.ndarray,
        is_ue: np.ndarray,
        job_start: np.ndarray,
        resolved: np.ndarray,
        breaks: np.ndarray,
        candidates: np.ndarray,
    ) -> None:
        # All arrays are this trace's views into the panel-concatenated
        # arrays (``resolved`` writes through to the walk's global mask);
        # ``breaks`` holds the trace-relative UE/candidate positions.
        self.n = int(times.shape[0])
        self.times = times
        self.is_ue = is_ue
        self.job_start = job_start
        self.resolved = resolved
        self.breaks = breaks
        self.candidates = candidates
        self.pointer = 0
        self.i0 = 0
        self.stop = 0
        self.last_mitigation: Optional[float] = None
        self.chunk = _WALK_CHUNK
        self.guess: Optional[np.ndarray] = None
        #: Unconfirmed decision suffix of the last window, used as the next
        #: window's guess while the cursor stays inside the same regime.
        self.leftover: Optional[np.ndarray] = None
        #: Row offset of this trace in the panel-concatenated event arrays.
        self.base = base

    def advance(self) -> bool:
        """Run the baseline regime until the next speculative window.

        Baseline — no live mitigation influences the next event (the last
        one was forgotten at a UE, or the running job started after it, and
        job starts are nondecreasing): the precomputed candidate decisions
        apply verbatim, no policy calls; jump straight to the next
        UE/candidate mitigation.  Returns ``True`` with a fresh speculative
        window prepared (``[i0, stop)`` plus its initial guess) when a live
        mitigation changes upcoming costs, ``False`` when the trace is
        finished and retires from the frontier.
        """
        while self.i0 < self.n:
            if (
                self.last_mitigation is None
                or self.job_start[self.i0] >= self.last_mitigation
            ):
                # Crossing into the baseline regime invalidates any seeded
                # guess (it was aligned with the speculative cursor).
                self.leftover = None
                while (
                    self.pointer < len(self.breaks)
                    and self.breaks[self.pointer] < self.i0
                ):
                    self.pointer += 1
                if self.pointer == len(self.breaks):
                    self.i0 = self.n
                    return False
                j = int(self.breaks[self.pointer])
                if self.is_ue[j]:
                    self.last_mitigation = None
                else:
                    self.resolved[j] = True
                    self.last_mitigation = float(self.times[j])
                    self.chunk = _WALK_CHUNK
                self.i0 = j + 1
                continue
            leftover = self.leftover
            self.leftover = None
            if leftover is not None and leftover.size:
                # Seeded window: the previous window's unconfirmed decision
                # suffix is the best available guess for the events right
                # after its accepted prefix (same regime, so still aligned).
                # Padded out to the chunk width (with the precomputed
                # baseline-cost candidate decisions) so a confirm can run
                # past the seed instead of stopping at its end and opening
                # yet another window.
                stop = min(self.i0 + max(leftover.size, self.chunk), self.n)
                width = stop - self.i0
                if width > leftover.size:
                    guess = self.candidates[self.i0 : stop].copy()
                    guess[: leftover.size] = leftover
                else:
                    guess = leftover
                self.stop = stop
                self.guess = guess
                obs.count("renewal_walk.retries")
                return True
            # Fresh window.  Initial guess: the precomputed baseline-cost
            # candidate decisions (already False at UEs) — the policy's own
            # behavior pattern under the cost regime the window converges
            # back to.
            self.stop = min(self.i0 + self.chunk, self.n)
            self.guess = self.candidates[self.i0 : self.stop]
            return True
        return False

    def accept(
        self,
        consumed: int,
        decisions: np.ndarray,
        last_mit_rel: int,
        last_ue_rel: int,
    ) -> None:
        """Consume this round's confirmed prefix and advance the cursor.

        ``decisions`` is the window's observed decision vector;
        ``last_mit_rel``/``last_ue_rel`` are the offsets of the last
        mitigation decision and last UE within the consumed prefix (``-1``
        when absent), precomputed per round for all windows at once.  The
        unconfirmed suffix becomes the next window's guess seed.
        """
        i0 = self.i0
        self.resolved[i0 : i0 + consumed] = decisions[:consumed]
        if last_ue_rel > last_mit_rel:
            self.last_mitigation = None
        elif last_mit_rel >= 0:
            self.last_mitigation = float(self.times[i0 + last_mit_rel])
        width = self.stop - i0
        self.i0 = i0 + consumed
        if consumed == width:
            self.chunk = self.chunk * 2
            self.leftover = None
        else:
            self.chunk = _WALK_CHUNK
            # A view is safe: the round's decision buffer is never reused.
            self.leftover = decisions[consumed:]


def _lockstep_walk(
    arrays: _PanelArrays, policy: MitigationPolicy
) -> Optional[np.ndarray]:
    """Resolve the cost-feedback renewal walk of every trace in lockstep.

    ``arrays`` is the panel (see :func:`_panel_arrays`), with its candidate
    mask attached.  Each trace replays the same renewal walk as before —
    candidate decisions apply verbatim while no live mitigation influences
    the next event; otherwise guess a window's decisions, derive each
    event's implied last-mitigation cost reference from the guess, decide
    under those costs, and consume the longest prefix on which the
    decisions confirm the guess *plus one* (the first divergent decision
    only depends on the confirmed prefix, so it is valid too), seeding the
    next window's guess with the unconfirmed decision suffix — but all
    traces' open windows are answered by a single ``decide_rows`` call per
    round, and the cost references of the whole round are derived with one
    segmented scan over the concatenation (global ``maximum.accumulate``
    positions clamped at each window's start, which reproduces the
    per-window scans exactly because positions from earlier windows are
    always below the current window's start).

    Returns the panel-concatenated resolved mask (sliced per trace by
    ``arrays.bounds``), or ``None`` when the policy declines a round — the
    caller then resolves the panel with the ``decide()`` loop (batch
    support is a property of the policy, not of one trace).
    """
    trace_bounds = arrays.bounds
    ue_all = arrays.is_ue
    resolved_all = np.zeros(ue_all.size, dtype=bool)
    breaks_all = np.flatnonzero(ue_all | arrays.candidates)
    break_bounds = np.searchsorted(breaks_all, trace_bounds, side="left")
    frontiers: List[_Frontier] = []
    for k in range(trace_bounds.size - 1):
        a = int(trace_bounds[k])
        b = int(trace_bounds[k + 1])
        frontiers.append(
            _Frontier(
                a,
                arrays.times[a:b],
                ue_all[a:b],
                arrays.job_start[a:b],
                resolved_all[a:b],
                breaks_all[break_bounds[k] : break_bounds[k + 1]] - a,
                arrays.candidates[a:b],
            )
        )
    pending = [frontier for frontier in frontiers if frontier.advance()]

    if pending:
        # Times/job-start/job-nodes stacked into one float matrix (a
        # single fancy-index gathers all three per round) and a reusable
        # position ramp sliced per round instead of re-allocated.
        panel_f = np.vstack([arrays.times, arrays.job_start, arrays.job_nodes])
        positions_all = np.arange(panel_f.shape[1], dtype=np.int64)

    while pending:
        obs.count("renewal_walk.rounds")
        obs.count("renewal_walk.windows", len(pending))
        n_windows = len(pending)
        starts = np.empty(n_windows, dtype=np.int64)
        stops = np.empty(n_windows, dtype=np.int64)
        lm = np.empty(n_windows, dtype=np.float64)
        guesses: List[np.ndarray] = []
        for k, frontier in enumerate(pending):
            starts[k] = frontier.base + frontier.i0
            stops[k] = frontier.base + frontier.stop
            last_mitigation = frontier.last_mitigation
            lm[k] = -np.inf if last_mitigation is None else last_mitigation
            guesses.append(frontier.guess)
        rows, widths = _concat_ranges(starts, stops)
        total = int(rows.size)
        bounds = np.empty(n_windows + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(widths, out=bounds[1:])

        gathered = panel_f[:, rows]
        times_c = gathered[0]
        job_start_c = gathered[1]
        job_nodes_c = gathered[2]
        ue_c = ue_all[rows]
        guess_c = np.concatenate(guesses)
        lm_row = lm.repeat(widths)
        window_start_row = bounds[:-1].repeat(widths)

        # Cost reference implied by the guesses: the latest guessed
        # mitigation not separated by a UE, falling back to the window's
        # incoming one.  One segmented scan over the whole round: the
        # global accumulate positions of earlier windows are < the current
        # window's start, so clamping at ``window_start_row`` recovers the
        # per-window "no previous mitigation/UE" (-1) states exactly.
        positions = positions_all[:total]
        guess_accumulate = np.maximum.accumulate(np.where(guess_c, positions, -1))
        ue_accumulate = np.maximum.accumulate(np.where(ue_c, positions, -1))
        previous_mit = np.empty(total, dtype=np.int64)
        previous_mit[0] = -1
        previous_mit[1:] = guess_accumulate[:-1]
        previous_ue = np.empty(total, dtype=np.int64)
        previous_ue[0] = -1
        previous_ue[1:] = ue_accumulate[:-1]
        mit_in = previous_mit >= window_start_row
        ue_in = previous_ue >= window_start_row
        internal = mit_in & (previous_mit > previous_ue)
        reference_times = np.where(~mit_in & ~ue_in, lm_row, -np.inf)
        reference_times = np.where(
            internal, times_c[np.maximum(previous_mit, 0)], reference_times
        )
        reference = np.maximum(job_start_c, reference_times)
        costs_c = job_nodes_c * np.maximum(0.0, times_c - reference) / HOUR

        decisions_c = _decide_rows(policy, rows, costs_c, ue_c)
        if decisions_c is None:
            # The policy declined the round (its right under the
            # decide_rows contract): abandon the batch resolution and let
            # the caller fall back to the decide() loop.
            return None

        # First divergence (and thus the consumed prefix) of every window
        # from one global comparison.
        divergent = np.flatnonzero(decisions_c != guess_c)
        first_at = np.searchsorted(divergent, bounds[:-1])
        padded = np.append(divergent, total)
        first_divergent = padded[np.minimum(first_at, divergent.size)]
        confirmed = np.where(
            first_divergent < bounds[1:], first_divergent - bounds[:-1], widths
        )
        consumed_all = np.minimum(confirmed + 1, widths)

        # Last mitigation/UE inside every window's consumed prefix, from
        # the same kind of segmented scan (clamped at each window's start;
        # the UE scan is the one already computed for the cost references).
        mit_accumulate = np.maximum.accumulate(np.where(decisions_c, positions, -1))
        prefix_end = bounds[:-1] + consumed_all - 1
        last_mit = mit_accumulate[prefix_end]
        last_ue = ue_accumulate[prefix_end]
        mit_rel_all = np.where(last_mit >= bounds[:-1], last_mit - bounds[:-1], -1)
        ue_rel_all = np.where(last_ue >= bounds[:-1], last_ue - bounds[:-1], -1)

        still_pending: List[_Frontier] = []
        for k, frontier in enumerate(pending):
            frontier.accept(
                int(consumed_all[k]),
                decisions_c[bounds[k] : bounds[k + 1]],
                int(mit_rel_all[k]),
                int(ue_rel_all[k]),
            )
            if frontier.advance():
                still_pending.append(frontier)
        pending = still_pending

    return resolved_all


def _account_panel(
    arrays: _PanelArrays,
    mask_all: np.ndarray,
    restartable: bool,
    prediction_window_seconds: float,
    mitigation_overhead_seconds: float,
) -> _ReplayTally:
    """Cost/metric accounting of a whole panel's resolved decision mask.

    Reconstructs, for every event, the last mitigation that survives up to
    it (a mitigation is forgotten at the next UE — the node reboots) from
    forward-filled indices and recomputes the per-event potential UE cost
    under that reference — for the whole panel at once: clamping the
    forward-filled global mitigation/UE positions at each trace's first
    row reproduces the per-trace "no previous mitigation/UE" states
    exactly (positions from earlier traces are always below it), and the
    per-UE costs come out in trace order — so the left-folded total is
    bit-identical to the per-event reference replay's.  Only the classical
    ML metrics (searchsorted range counts over each trace's own sorted
    times) stay per trace.
    """
    bounds = arrays.bounds
    lengths = np.diff(bounds)
    n_total = int(bounds[-1])
    times_all = arrays.times
    ue_all = arrays.is_ue
    job_start_all = arrays.job_start
    job_nodes_all = arrays.job_nodes

    ue_pos_global = np.flatnonzero(ue_all)
    mit_pos_global = np.flatnonzero(mask_all)
    n_ues = int(ue_pos_global.size)
    n_mitigations = int(mit_pos_global.size)
    if n_ues == 0:
        return _ReplayTally(
            n_mitigations=n_mitigations, n_decision_points=n_total
        )

    if restartable and n_mitigations:
        positions = np.arange(n_total, dtype=np.int64)
        trace_start_row = np.repeat(bounds[:-1], lengths)
        previous_mit = np.concatenate(
            [[-1], np.maximum.accumulate(np.where(mask_all, positions, -1))[:-1]]
        )
        previous_ue = np.concatenate(
            [[-1], np.maximum.accumulate(np.where(ue_all, positions, -1))[:-1]]
        )
        live = (previous_mit >= trace_start_row) & (previous_mit > previous_ue)
        reference = np.where(
            live,
            np.maximum(job_start_all, times_all[np.maximum(previous_mit, 0)]),
            job_start_all,
        )
        costs_all = job_nodes_all * np.maximum(0.0, times_all - reference) / HOUR
    else:
        costs_all = (
            job_nodes_all * np.maximum(0.0, times_all - job_start_all) / HOUR
        )
    ue_costs = costs_all[ue_pos_global]

    # Classical ML metrics: each trace's searchsorted range counts run over
    # its own (sorted) times, so they stay per trace — sliced out of the
    # global UE/mitigation position lists instead of re-scanning each mask.
    ue_lo = np.searchsorted(ue_pos_global, bounds[:-1], side="left")
    ue_hi = np.searchsorted(ue_pos_global, bounds[1:], side="left")
    mit_lo = np.searchsorted(mit_pos_global, bounds[:-1], side="left")
    mit_hi = np.searchsorted(mit_pos_global, bounds[1:], side="left")
    true_positives = 0
    n_unpreceded = 0
    for k in range(bounds.size - 1):
        if ue_hi[k] == ue_lo[k]:
            continue
        base = bounds[k]
        ue_positions = ue_pos_global[ue_lo[k] : ue_hi[k]] - base
        mitigation_positions = mit_pos_global[mit_lo[k] : mit_hi[k]] - base
        times = times_all[bounds[k] : bounds[k + 1]]
        is_ue = ue_all[bounds[k] : bounds[k + 1]]

        ue_times = times[ue_positions]
        window_start = ue_times - prediction_window_seconds
        latest_complete = ue_times - mitigation_overhead_seconds
        mitigation_times = times[mitigation_positions]
        visible = np.searchsorted(mitigation_positions, ue_positions, side="left")
        low = np.searchsorted(mitigation_times, window_start, side="left")
        high = np.searchsorted(mitigation_times, latest_complete, side="right")
        completed = np.minimum(high, visible) > low
        true_positives += int(np.count_nonzero(completed))

        non_ue_before = np.concatenate(
            [[0], np.add.accumulate((~is_ue).astype(np.int64))]
        )
        first_in_window = np.searchsorted(times, window_start, side="left")
        first_at_time = np.searchsorted(times, ue_times, side="left")
        upper = np.minimum(first_at_time, ue_positions)
        lower = np.minimum(first_in_window, upper)
        preceding = non_ue_before[upper] - non_ue_before[lower]
        n_unpreceded += int(np.count_nonzero(preceding == 0))
    return _ReplayTally(
        n_ues=n_ues,
        n_mitigations=n_mitigations,
        n_decision_points=n_total - n_ues,
        true_positives=true_positives,
        n_ues_without_preceding_event=n_unpreceded,
        ue_cost=float(np.add.accumulate(ue_costs)[-1]),
    )


def _resolve_panel_masks(
    arrays: _PanelArrays, policy: MitigationPolicy, restartable: bool
) -> Optional[np.ndarray]:
    """Resolve the panel's final decision mask through the batched core.

    One ``decide_rows`` call over every row of the panel under the
    no-mitigation cost baseline — the final mask for cost-independent
    policies and under ``restartable=False``, else the candidate mask the
    lockstep renewal walk starts from.  Callers must have called
    ``policy.prepare_traces`` on the panel's traces beforehand (and are
    responsible for releasing the panel afterwards).

    Returns the panel-concatenated final mask (``arrays.bounds`` slices it
    per trace), or ``None`` when the policy declines anywhere — batch
    support is a property of the policy, not of one trace, so the caller
    falls back to the ``decide()`` loop wholesale.  Every per-event cost is
    computed with the same element-wise operations as
    ``NodeJobTimeline.potential_ue_cost``.
    """
    base_costs = (
        arrays.job_nodes * np.maximum(0.0, arrays.times - arrays.job_start) / HOUR
    )
    rows = np.arange(arrays.times.size, dtype=np.int64)
    arrays.candidates = _decide_rows(policy, rows, base_costs, arrays.is_ue)
    if arrays.candidates is None:
        return None
    if policy.cost_dependent and restartable:
        return _lockstep_walk(arrays, policy)
    return arrays.candidates


def _decide_trace(
    trace: EvaluationTrace, policy: MitigationPolicy, restartable: bool
) -> np.ndarray:
    """One trace's decision mask from sequential ``decide()`` calls.

    The fallback for policies that decline ``decide_rows``: each event sees
    the potential UE cost under the trace's own running last mitigation
    (forgotten at every UE, where the node reboots).
    """
    policy.reset()
    policy.prepare_trace(trace.features)
    mask = np.zeros(len(trace), dtype=bool)
    last_mitigation: Optional[float] = None
    for i in range(len(trace)):
        t = float(trace.times[i])
        if trace.is_ue[i]:
            last_mitigation = None
            continue
        cost = trace.timeline.potential_ue_cost(t, last_mitigation, restartable)
        context = DecisionContext(
            time=t,
            node=trace.node,
            features=trace.features[i],
            ue_cost=cost,
            is_last_event_before_ue=bool(trace.is_last_before_ue[i]),
            event_index=i,
        )
        if policy.decide(context):
            mask[i] = True
            last_mitigation = t
    return mask


def _replay_mask(
    traces: Sequence[EvaluationTrace], policy: MitigationPolicy, restartable: bool
) -> Tuple[_PanelArrays, np.ndarray]:
    """The (non-empty) panel and the one decision mask a replay resolves.

    The batched core answers when the policy supports it; a decline
    anywhere sends the whole replay through :func:`_decide_trace`.
    """
    arrays = _panel_arrays(traces)
    policy.prepare_traces(traces)
    mask = _resolve_panel_masks(arrays, policy, restartable)
    # Release the policy's panel so a policy kept alive in the results
    # does not pin this replay's trace data.
    policy.prepare_traces(())
    if mask is None:
        mask = np.concatenate(
            [_decide_trace(trace, policy, restartable) for trace in traces]
        )
    return arrays, mask


def replay_decision_masks(
    traces: Sequence[EvaluationTrace],
    policy: MitigationPolicy,
    restartable: bool = True,
) -> List[np.ndarray]:
    """Per-trace decision masks of a replay — what ``evaluate_policy`` accounts.

    Returns one boolean array per trace (aligned with ``traces``), True where
    the policy triggers a mitigation; entries at UE events are always False.
    This is the *offline reference* the online serving equivalence is tested
    against: ``evaluate_policy`` scores exactly these masks (batched, or
    from the ``decide()`` loop when the policy declines batching).
    """
    if not traces:
        return []
    arrays, mask = _replay_mask(traces, policy, restartable)
    return np.split(mask, arrays.bounds[1:-1])


def evaluate_policy(
    traces: Sequence[EvaluationTrace],
    policy: MitigationPolicy,
    mitigation_cost: float,
    restartable: bool = True,
    prediction_window_seconds: float = DAY,
    mitigation_overhead_seconds: Optional[float] = None,
    include_training_cost: bool = True,
) -> PolicyEvaluation:
    """Replay ``policy`` over ``traces`` and account costs and metrics.

    The replay resolves one decision mask over the traces (see
    :func:`replay_decision_masks`) and scores it with one segmented scan.

    Parameters
    ----------
    traces:
        Evaluation traces from :func:`build_traces`.
    policy:
        The mitigation policy under evaluation.
    mitigation_cost:
        Cost of one mitigation in node–hours.
    restartable:
        Whether a mitigation resets the potential UE cost (checkpointing).
    prediction_window_seconds:
        Window of the classical ML metrics (Section 4.4), default one day.
    mitigation_overhead_seconds:
        Wall-clock duration of a mitigation; a mitigation must have been
        initiated at least this long before a UE to count as completed.
        Defaults to the mitigation cost interpreted as minutes of wall-clock
        time on a single node.
    include_training_cost:
        Whether to charge ``policy.training_cost_node_hours`` to the total.
    """
    check_non_negative("mitigation_cost", mitigation_cost)
    check_positive("prediction_window_seconds", prediction_window_seconds)
    if mitigation_overhead_seconds is None:
        mitigation_overhead_seconds = mitigation_cost * 3600.0
    check_non_negative("mitigation_overhead_seconds", mitigation_overhead_seconds)

    tally = _ReplayTally()
    if traces:
        arrays, mask = _replay_mask(traces, policy, restartable)
        tally = _account_panel(
            arrays,
            mask,
            restartable,
            prediction_window_seconds,
            mitigation_overhead_seconds,
        )

    n_mitigations = tally.n_mitigations
    true_positives = tally.true_positives
    false_negatives = tally.n_ues - true_positives
    non_mitigations = (
        tally.n_decision_points - n_mitigations + tally.n_ues_without_preceding_event
    )
    mitigation_total = 0.0
    if n_mitigations:
        repeated = np.full(n_mitigations, mitigation_cost)
        mitigation_total = float(np.add.accumulate(repeated)[-1])

    training_cost = policy.training_cost_node_hours if include_training_cost else 0.0
    costs = CostBreakdown(
        ue_cost=tally.ue_cost,
        mitigation_cost=mitigation_total,
        training_cost=training_cost,
        n_ues=tally.n_ues,
        n_mitigations=n_mitigations,
    )
    confusion = ConfusionCounts(
        true_positives=true_positives,
        false_negatives=false_negatives,
        false_positives=n_mitigations - true_positives,
        true_negatives=max(0, non_mitigations - false_negatives),
    )
    return PolicyEvaluation(
        policy_name=policy.name,
        costs=costs,
        confusion=confusion,
        n_traces=len(traces),
        n_decision_points=tally.n_decision_points,
    )


def evaluate_policies(
    traces: Sequence[EvaluationTrace],
    policies: Sequence[MitigationPolicy],
    mitigation_cost: float,
    restartable: bool = True,
    prediction_window_seconds: float = DAY,
    **kwargs,
) -> Dict[str, PolicyEvaluation]:
    """Evaluate several policies over the same traces."""
    return {
        policy.name: evaluate_policy(
            traces,
            policy,
            mitigation_cost,
            restartable=restartable,
            prediction_window_seconds=prediction_window_seconds,
            **kwargs,
        )
        for policy in policies
    }
