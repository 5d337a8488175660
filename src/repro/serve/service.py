"""The micro-batched online decision service (the ``repro.serve`` daemon).

A fleet-scale deployment of the paper's mitigation policies cannot afford
one model evaluation per node event: UE storms deliver bursts of correlated
events across many nodes at once.  :class:`DecisionService` therefore

1. ingests an mcelog event stream into one incremental
   :class:`~repro.core.features.OnlineFeatureState` per node,
2. finalises merged decision steps the moment the stream clock passes their
   merge window (a deadline heap keys the open groups), and
3. *micro-batches* the nodes with pending steps: each tick takes the whole
   pending window of up to ``max_batch`` ready nodes and answers it with
   one :meth:`~repro.core.policies.MitigationPolicy.decide_nodes` call per
   round — one forest gather or one DQN GEMM serves the whole batch.

A tick fires as soon as ``max_batch`` nodes are ready or ``max_delay``
wall-clock seconds after the first step of the open batch arrived, whichever
comes first.  That rule is a synchronous core: :meth:`DecisionService.serve`
drives it from a plain iterable (an in-memory log, read as plain rows) with
no event loop, and :meth:`DecisionService.run` from an async source (a
tailed mcelog file or a paced replay, see :mod:`repro.serve.sources`).

Equivalence with the offline replay is exact, not approximate: the per-node
step sequence is bit-identical to :func:`~repro.core.features
.extract_node_features` (pinned by the online feature tests), the potential
UE cost at each step is computed by the same
:meth:`~repro.workload.sampling.NodeJobTimeline.potential_ue_cost` scalar
operations the sequential reference replay uses, a window resolves by the
offline renewal walk's confirm-prefix rule (so a mitigation's cost reset is
visible to the node's next step, exactly as in the sequential replay), and
the cost totals fold in the same order as the evaluation runner's
accumulator.  The serve equivalence suite pins decisions and totals against
:func:`~repro.evaluation.runner.replay_decision_masks` and
:func:`~repro.evaluation.runner.evaluate_policy` for the forest and RL
policies alike.

:class:`ServeReport` has a constant-size repr (policy name and counts only).
``asyncio.run`` on CPython 3.11 and 3.12 formats its main task, result
included, while restoring the SIGINT handler at exit; a dataclass repr of
the report would print every per-node mask and every kept decision, a cost
that grows with the stream and is paid twice whenever
:meth:`DecisionService.run` runs under ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time as time_module
from collections import Counter
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.features import OnlineFeatureState, OnlineStep
from repro.core.policies import MitigationPolicy
from repro.serve.jobs import JobStateProvider
from repro.serve.sources import ReplaySource
from repro.telemetry.error_log import ErrorLog
from repro.telemetry.records import EventRecord
from repro.utils.timeutils import MINUTE
from repro.utils.validation import boolean, check_fields, non_negative, positive
from repro.workload.sampling import NodeJobTimeline


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the online decision service.

    ``max_batch`` and ``max_delay_seconds`` trade throughput for decision
    latency: a tick fires when ``max_batch`` nodes have a pending step or
    ``max_delay_seconds`` after the first pending step arrived, whichever
    comes first.  ``max_batch`` bounds the *nodes* of a tick, not its rows:
    a tick takes every pending step of each node it takes.  The knobs only
    shape *when* model calls happen — decisions are invariant under any
    setting (pinned by the batching-invariance test).
    """

    mitigation_cost_node_hours: float = non_negative(1.0)
    restartable: bool = boolean(True)
    max_batch: int = positive(64, int)
    max_delay_seconds: float = non_negative(0.05)
    merge_window_seconds: float = positive(MINUTE)
    keep_decisions: bool = boolean(True)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class DecisionRecord:
    """One entry of the per-node decision log."""

    tick: int
    node: int
    time: float
    ue_cost: float
    mitigate: bool
    is_ue: bool

    def to_dict(self) -> Dict:
        """JSONL-ready representation (the ``--decision-log`` format)."""
        return asdict(self)


@dataclass(frozen=True, repr=False)
class ServeReport:
    """Outcome and telemetry of one service run.

    ``masks`` holds, per node, one boolean per merged step in step order
    (``False`` at UE steps) — directly comparable to the offline
    :func:`~repro.evaluation.runner.replay_decision_masks` of the same
    panel.  ``ue_cost_node_hours`` / ``mitigation_cost_node_hours`` fold
    exactly as the evaluation runner's accumulator does, so they equal the
    corresponding :class:`~repro.evaluation.costs.CostBreakdown` fields of
    an offline :func:`~repro.evaluation.runner.evaluate_policy` run.
    ``batch_sizes`` counts each tick's decisions once, however many rounds.
    """

    policy_name: str
    n_events: int
    n_steps: int
    n_decision_points: int
    n_ues: int
    n_mitigations: int
    n_ticks: int
    wall_seconds: float
    ue_cost_node_hours: float
    mitigation_cost_node_hours: float
    masks: Dict[int, np.ndarray]
    batch_sizes: np.ndarray
    tick_latencies: np.ndarray
    decisions: List[DecisionRecord] = field(default_factory=list)

    @property
    def mean_batch_size(self) -> float:
        """Mean decisions per tick, across ticks that made one."""
        if self.batch_sizes.size == 0:
            return 0.0
        return float(np.mean(self.batch_sizes))

    @property
    def decisions_per_second(self) -> float:
        """Decision throughput over the whole run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.n_decision_points / self.wall_seconds

    def latency_seconds(self, percentile: float) -> float:
        """Tick-latency percentile in seconds (e.g. ``50`` / ``99``)."""
        if self.tick_latencies.size == 0:
            return 0.0
        return float(np.percentile(self.tick_latencies, percentile))

    def batch_size_histogram(self) -> Dict[int, int]:
        """``{batch size: number of ticks}`` over the run."""
        return dict(sorted(Counter(int(b) for b in self.batch_sizes).items()))

    def __repr__(self) -> str:
        # Counts only, never the arrays or the decision log (module docstring).
        return (
            f"ServeReport(policy_name={self.policy_name!r}, "
            f"n_events={self.n_events}, n_steps={self.n_steps}, "
            f"n_decision_points={self.n_decision_points}, n_ues={self.n_ues}, "
            f"n_mitigations={self.n_mitigations}, n_ticks={self.n_ticks}, "
            f"n_nodes={len(self.masks)}, n_decisions={len(self.decisions)})"
        )

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        return (
            f"{self.policy_name}: {self.n_events} events -> {self.n_steps} steps "
            f"({self.n_decision_points} decision points, {self.n_ues} UEs) in "
            f"{self.n_ticks} ticks; {self.n_mitigations} mitigations; "
            f"mean batch {self.mean_batch_size:.1f}, "
            f"{self.decisions_per_second:,.0f} decisions/s, "
            f"tick p50 {self.latency_seconds(50) * 1e3:.2f} ms / "
            f"p99 {self.latency_seconds(99) * 1e3:.2f} ms; "
            f"UE cost {self.ue_cost_node_hours:,.1f} node-h, "
            f"mitigation cost {self.mitigation_cost_node_hours:,.1f} node-h"
        )


class _NodeState:
    """Everything the service tracks for one node."""

    __slots__ = (
        "features",
        "pending",
        "timeline",
        "last_mitigation",
        "mask",
        "ue_costs",
        "pushed_deadline",
    )

    def __init__(self, features: OnlineFeatureState, timeline: NodeJobTimeline) -> None:
        self.features = features
        self.pending: List[OnlineStep] = []
        self.timeline = timeline
        self.last_mitigation: Optional[float] = None
        self.mask: List[bool] = []
        self.ue_costs: List[float] = []
        #: Deadline of the open merge group already on the service heap
        #: (deadlines only grow, so equality is enough to dedupe pushes).
        self.pushed_deadline: Optional[float] = None


class _Window:
    """A node's pending steps in a tick; ``mask`` is final before ``cursor``."""

    __slots__ = ("node", "state", "steps", "jobs", "mask", "cursor")

    def __init__(self, node: int, state: _NodeState) -> None:
        self.node, self.state, self.steps = node, state, state.pending
        self.jobs = [state.timeline.job_at(step.time) for step in self.steps]
        self.mask = [False] * len(self.steps)
        self.cursor = 0
        state.pending = []

    def walk(self, restartable: bool, start: int = 0):
        """``(index, step, potential UE cost)`` from ``start`` on, under the mask."""
        cost_at = self.state.timeline.potential_ue_cost
        last = self.state.last_mitigation
        for i, (step, job) in enumerate(zip(self.steps, self.jobs)):
            if i >= start:
                yield i, step, cost_at(step.time, last, restartable, job)
            if step.is_ue:
                last = None
            elif self.mask[i]:
                last = step.time

    def accept(self, decisions: List[bool], index: int, feedback: bool) -> int:
        """Keep the confirmed prefix plus the first divergent answer of
        ``decisions[index:]`` (the rest is the next guess); return the next index."""
        accepting = True
        for i in range(self.cursor, len(self.steps)):
            if not self.steps[i].is_ue:
                decision = decisions[index]
                index += 1
                if accepting:
                    self.cursor = i + 1
                    accepting = decision == self.mask[i] or not feedback
                self.mask[i] = decision
            elif accepting:
                self.cursor = i + 1
        return index

    @property
    def open(self) -> bool:
        """Whether a decision step is still undecided."""
        return any(not step.is_ue for step in self.steps[self.cursor :])


class DecisionService:
    """Micro-batching decision loop over one event stream.

    One instance serves one stream: :meth:`serve` (a plain iterable) or
    :meth:`run` (an async source, forever for a following tail) consumes it
    and returns the :class:`ServeReport`; any later call raises
    ``RuntimeError``.  The policy must implement ``decide_nodes`` for
    batched ticks — every built-in online-servable policy does; the base
    class falls back to per-row ``decide`` calls.
    """

    def __init__(
        self,
        policy: MitigationPolicy,
        jobs: JobStateProvider,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self._policy = policy
        self._jobs = jobs
        self._config = config or ServeConfig()
        self._nodes: Dict[int, _NodeState] = {}
        #: Nodes with pending steps, in the order they became ready.
        self._ready: Dict[int, None] = {}
        self._deadlines: List = []
        self._clock: Optional[float] = None
        self._n_events = 0
        self._n_steps = 0
        self._n_decision_points = 0
        self._n_ues = 0
        self._n_mitigations = 0
        self._tick_index = 0
        self._batch_sizes: List[int] = []
        self._tick_latencies: List[float] = []
        self._decisions: List[DecisionRecord] = []
        self._batch_deadline: Optional[float] = None
        self._started: Optional[float] = None

    # ------------------------------------------------------------------ #
    # ingestion                                                          #
    # ------------------------------------------------------------------ #

    def _node_state(self, node: int) -> _NodeState:
        state = self._nodes.get(node)
        if state is None:
            state = _NodeState(
                OnlineFeatureState(
                    node, merge_window_seconds=self._config.merge_window_seconds
                ),
                self._jobs.timeline_for(node),
            )
            self._nodes[node] = state
        return state

    def _ingest(self, record: EventRecord) -> None:
        if self._clock is not None and record.time < self._clock:
            raise ValueError(
                f"event stream must be time-ordered (got t={record.time!r} "
                f"after t={self._clock!r})"
            )
        self._clock = record.time
        self._n_events += 1
        state = self._node_state(record.node)
        steps = state.features.absorb(record)
        if steps:
            state.pending.extend(steps)
            self._ready[record.node] = None
        deadline = state.features.open_group_deadline
        if deadline is not None and deadline != state.pushed_deadline:
            heapq.heappush(self._deadlines, (deadline, record.node))
            state.pushed_deadline = deadline
        self._expire_deadlines()
        if self._batch_deadline is None and self._ready:
            self._batch_deadline = time_module.monotonic() + self._config.max_delay_seconds

    def _expire_deadlines(self) -> None:
        """Finalise every open group the stream clock has passed.

        Safe because the stream is globally time-ordered: any node's next
        event is no earlier than the current clock, which is exactly the
        :meth:`OnlineFeatureState.advance_to` precondition.
        """
        clock = self._clock
        while self._deadlines and self._deadlines[0][0] <= clock:
            deadline, node = heapq.heappop(self._deadlines)
            state = self._nodes[node]
            if state.features.open_group_deadline != deadline:
                continue  # stale entry: the group already closed
            steps = state.features.advance_to(clock)
            state.pushed_deadline = None
            if steps:
                state.pending.extend(steps)
                self._ready[node] = None

    # ------------------------------------------------------------------ #
    # micro-batched ticks                                                #
    # ------------------------------------------------------------------ #

    def _tick(self) -> None:
        """Resolve the whole pending window of up to ``max_batch`` ready nodes.

        Each round asks one ``decide_nodes`` call for the undecided steps of
        every open window, priced under the window's guess (no mitigation,
        then its last answers); with cost feedback only each window's
        confirmed prefix and first divergent answer are kept (the offline
        renewal walk's rule).  UE steps never reach the policy.
        """
        started = time_module.perf_counter()
        config = self._config
        restartable = config.restartable
        feedback = self._policy.cost_dependent and restartable
        nodes = list(islice(self._ready, config.max_batch))
        for node in nodes:
            del self._ready[node]
        windows = [_Window(node, self._nodes[node]) for node in nodes]
        pending = [window for window in windows if window.open]
        while pending:
            steps: List[OnlineStep] = []
            costs: List[float] = []
            for window in pending:
                for _, step, cost in window.walk(restartable, window.cursor):
                    if not step.is_ue:
                        steps.append(step)
                        costs.append(cost)
            result = self._policy.decide_nodes(
                np.array([step.features for step in steps]),
                np.array(costs),
                times=np.array([step.time for step in steps]),
                nodes=np.array([step.node for step in steps], dtype=np.int64),
            )
            decisions = np.asarray(result, dtype=bool)
            if decisions.shape != (len(steps),):
                raise ValueError(
                    f"decide_nodes of {self._policy.name!r} returned shape "
                    f"{decisions.shape}, expected ({len(steps)},)"
                )
            decisions = decisions.tolist()
            index = 0
            for window in pending:
                index = window.accept(decisions, index, feedback)
            pending = [window for window in pending if window.open]

        n_decisions = 0
        for window in windows:
            state = window.state
            for i, step, cost in window.walk(restartable):
                mitigate = window.mask[i]
                if step.is_ue:
                    state.ue_costs.append(cost)
                    state.last_mitigation = None
                    self._n_ues += 1
                else:
                    n_decisions += 1
                    if mitigate:
                        state.last_mitigation = step.time
                        self._n_mitigations += 1
                if config.keep_decisions:
                    self._decisions.append(
                        DecisionRecord(
                            self._tick_index, window.node, step.time, cost, mitigate, step.is_ue
                        )
                    )
            state.mask.extend(window.mask)
            self._n_steps += len(window.steps)
        if n_decisions:
            self._n_decision_points += n_decisions
            self._batch_sizes.append(n_decisions)
            self._tick_latencies.append(time_module.perf_counter() - started)
            self._tick_index += 1

    # ------------------------------------------------------------------ #
    # the tick rule and its two drivers                                  #
    # ------------------------------------------------------------------ #

    def _begin(self) -> None:
        if self._started is not None:
            raise RuntimeError("a DecisionService serves one stream; create a new one")
        self._started = time_module.perf_counter()

    def _due_at(self) -> float:
        """The tick rule, on the monotonic clock: at once (``-inf``) at
        ``max_batch`` ready nodes, else at the batch deadline (``inf`` if none)."""
        if len(self._ready) >= self._config.max_batch:
            return -math.inf
        return math.inf if self._batch_deadline is None else self._batch_deadline

    def _fire(self) -> bool:
        """Fire one tick if it is due; a new deadline opens if steps still wait."""
        now = time_module.monotonic()
        if self._due_at() > now:
            return False
        self._tick()
        self._batch_deadline = now + self._config.max_delay_seconds if self._ready else None
        return True

    def _finish(self) -> ServeReport:
        """End of stream: force-close every open merge group, drain, report."""
        self._deadlines.clear()
        for node in sorted(self._nodes):
            state = self._nodes[node]
            steps = state.features.flush()
            state.pushed_deadline = None
            if steps:
                state.pending.extend(steps)
                self._ready[node] = None
        while self._ready:
            self._tick()
        return self._report(time_module.perf_counter() - self._started)

    def serve(self, records: Iterable[EventRecord]) -> ServeReport:
        """Serve a plain record iterable, or an ``ErrorLog`` as its rows, to its end."""
        self._begin()
        if isinstance(records, ErrorLog):
            records = records.rows()
        for record in records:
            self._ingest(record)
            while self._fire():
                pass
        return self._finish()

    async def run(self, source) -> ServeReport:
        """Consume an async ``source`` to exhaustion and return the report.

        The source is awaited directly, one record at a time.  Due ticks run
        one per loop callback (:meth:`_due_at`), which the loop reaches when
        the source waits: every record the source already has is ingested
        first, and an idle source still gets its steps decided.  A source
        that never waits gets its ticks between records once the batch
        deadline passed.  An error in a tick cancels the wait and is raised
        here.  On exit or cancellation the callback is cancelled and the
        iterator closed.
        """
        self._begin()
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        records = source.__aiter__()
        callback: Optional[asyncio.TimerHandle] = None
        failure: List[Exception] = []

        def arm() -> None:
            nonlocal callback
            if callback is not None:
                callback.cancel()
            callback = None
            due_at = self._due_at()
            if due_at < math.inf:
                delay = max(0.0, due_at - time_module.monotonic())
                callback = loop.call_later(delay, on_due)

        def on_due() -> None:
            nonlocal callback
            callback = None
            try:
                self._fire()
            except Exception as exc:
                failure.append(exc)
                task.cancel()
            else:
                arm()

        try:
            async for record in records:
                self._ingest(record)
                deadline = self._batch_deadline
                if deadline is not None and time_module.monotonic() >= deadline:
                    self._fire()  # a source that never waits: catch up
                arm()
        except asyncio.CancelledError:
            if not failure:
                raise
            if hasattr(task, "uncancel"):  # Python >= 3.11
                task.uncancel()
            raise failure[0] from None
        finally:
            if callback is not None:
                callback.cancel()
            if hasattr(records, "aclose"):
                await records.aclose()
        return self._finish()

    # ------------------------------------------------------------------ #
    # reporting                                                          #
    # ------------------------------------------------------------------ #

    def _report(self, wall_seconds: float) -> ServeReport:
        # Cost totals fold exactly as the evaluation runner's accumulator:
        # per-node UE-cost chunks concatenated in sorted-node (= panel)
        # order and left-folded with np.add.accumulate; the mitigation
        # total is the same fold of the unit cost repeated per mitigation.
        chunks = [
            np.asarray(self._nodes[node].ue_costs, dtype=np.float64)
            for node in sorted(self._nodes)
            if self._nodes[node].ue_costs
        ]
        if chunks:
            ue_cost = float(np.add.accumulate(np.concatenate(chunks))[-1])
        else:
            ue_cost = 0.0
        if self._n_mitigations:
            repeated = np.full(
                self._n_mitigations, self._config.mitigation_cost_node_hours
            )
            mitigation_cost = float(np.add.accumulate(repeated)[-1])
        else:
            mitigation_cost = 0.0
        return ServeReport(
            policy_name=self._policy.name,
            n_events=self._n_events,
            n_steps=self._n_steps,
            n_decision_points=self._n_decision_points,
            n_ues=self._n_ues,
            n_mitigations=self._n_mitigations,
            n_ticks=self._tick_index,
            wall_seconds=wall_seconds,
            ue_cost_node_hours=ue_cost,
            mitigation_cost_node_hours=mitigation_cost,
            masks={
                node: np.asarray(self._nodes[node].mask, dtype=bool)
                for node in sorted(self._nodes)
            },
            batch_sizes=np.asarray(self._batch_sizes, dtype=np.int64),
            tick_latencies=np.asarray(self._tick_latencies, dtype=np.float64),
            decisions=self._decisions,
        )


def serve_log(
    log,
    policy: MitigationPolicy,
    jobs: JobStateProvider,
    config: Optional[ServeConfig] = None,
    speed: Optional[float] = None,
) -> ServeReport:
    """Serve a whole error log through a fresh service.

    ``speed=None`` serves the log unthrottled through the synchronous core,
    with no event loop; a positive value replays it at that multiple of real
    time through :meth:`DecisionService.run`, exercising the max-delay path.
    """
    service = DecisionService(policy, jobs, config)
    if speed is None:
        return service.serve(log)
    return asyncio.run(service.run(ReplaySource(log, speed=speed)))
