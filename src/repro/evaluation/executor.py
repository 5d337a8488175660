"""Dependency-aware task executor for the experiment pipeline.

The experiment decomposes into independent (split × approach-group) tasks —
see :mod:`repro.evaluation.pipeline` — plus a small number of ordering
constraints (the RL warm-start chain).  This module runs such a task graph
either serially or on a :class:`concurrent.futures.ProcessPoolExecutor`,
preserving determinism: every task seeds its own random streams from stable
string keys, so the schedule cannot change the results, only the wall-clock.

Two scheduling refinements keep the wall-clock close to the graph's
theoretical minimum:

* **Critical-path-first dispatch** — among simultaneously ready tasks, the
  ones with the highest :attr:`Task.priority` are submitted first.  The
  pipeline marks the RL warm-start chain (trial-0 and reduce tasks) as
  high priority, so the chain — the longest dependency path of every
  experiment — never waits behind independent fan-out work.
* **Task-level timing** — pass an :class:`ExecutorStats` to
  :func:`execute_tasks` to record every task's in-task execution seconds,
  the pid that ran it, and the measured critical path (the heaviest
  dependency chain), the lower bound on the graph's wall-clock at
  infinite parallelism.

Every task also returns what it counted in the :mod:`repro.obs` registry
of the process that ran it; the driver merges the deltas of pool workers,
so its registry covers the whole run on every backend.

The executor is deliberately generic (tasks are plain callables), so other
subsystems can reuse it for their own fan-out.

Backends
--------
``"process"``
    One OS process per worker (the default).  Sidesteps the GIL for the
    numpy-heavy training stages.  Falls back to serial execution when the
    platform refuses to spawn processes (restricted sandboxes).
``"thread"``
    Threads in the current process; useful where processes are unavailable
    and the workload releases the GIL.
``"serial"``
    In-process topological execution, also used whenever ``n_workers <= 1``.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs

__all__ = ["EXECUTOR_KINDS", "ExecutorStats", "Task", "TaskGraphError", "execute_tasks"]

#: The backends ``execute_tasks`` accepts as ``kind``.
EXECUTOR_KINDS = ("process", "thread", "serial")


class TaskGraphError(ValueError):
    """Raised for malformed task graphs (duplicate keys, cycles, bad deps)."""


class _PoolSpawnError(RuntimeError):
    """Internal: the platform refused to start pool workers.

    ``ProcessPoolExecutor`` spawns workers lazily at ``submit()`` time, so a
    sandbox that forbids process creation raises OSError *inside* the
    scheduling loop, not in the pool constructor.  Wrapping the submit-time
    failure in a distinct type keeps it separable from an OSError raised by
    a task itself (which must propagate, not trigger the serial fallback).
    """


@dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``fn`` is called as ``fn(dep_results, *args)`` where ``dep_results`` maps
    each key in ``deps`` to that task's result.  With the process backend,
    ``fn``, ``args`` and all results must be picklable (``fn`` must be a
    module-level callable).

    ``priority`` orders simultaneously *ready* tasks: higher runs first.
    It never overrides a dependency edge — it only decides which of the
    tasks whose dependencies are already satisfied gets a worker next.
    Mark the tasks on the graph's critical path with a high priority so
    the longest chain is always making progress.
    """

    key: str
    fn: Callable[..., Any]
    args: Tuple = ()
    deps: Tuple[str, ...] = ()
    priority: int = 0


@dataclass
class ExecutorStats:
    """Task-level timing of one :func:`execute_tasks` run.

    Pass an instance via ``execute_tasks(..., stats=stats)``; the executor
    fills it in place.  ``task_seconds`` is in-task execution time (queueing
    and result transfer excluded; with the process backend the clock runs
    inside the worker).  The *critical path* is the dependency chain with
    the largest total execution time — the wall-clock lower bound however
    many workers are available — computed from the recorded durations and
    the task graph's edges.
    """

    #: Task key -> in-task execution seconds.
    task_seconds: Dict[str, float] = field(default_factory=dict)
    #: Task key -> pid of the process that ran it.
    task_pids: Dict[str, int] = field(default_factory=dict)
    #: End-to-end wall-clock of the whole run (scheduling included).
    wallclock_seconds: float = 0.0
    #: Total execution seconds of the heaviest dependency chain.
    critical_path_seconds: float = 0.0
    #: The task keys of that chain, in execution order.
    critical_path: Tuple[str, ...] = ()

    @property
    def total_task_seconds(self) -> float:
        """Sum of all task execution times (serial-equivalent work)."""
        return float(sum(self.task_seconds.values()))

    def _finalize(self, tasks: Sequence["Task"], wallclock_seconds: float) -> None:
        """Compute the critical path from the recorded durations."""
        self.wallclock_seconds = wallclock_seconds
        finish: Dict[str, float] = {}
        predecessor: Dict[str, Optional[str]] = {}
        best_key: Optional[str] = None
        for task in _topological_order(tasks):
            longest_dep = 0.0
            via: Optional[str] = None
            for dep in task.deps:
                if finish.get(dep, 0.0) > longest_dep:
                    longest_dep = finish[dep]
                    via = dep
            finish[task.key] = longest_dep + self.task_seconds.get(task.key, 0.0)
            predecessor[task.key] = via
            if best_key is None or finish[task.key] > finish[best_key]:
                best_key = task.key
        if best_key is None:
            self.critical_path_seconds = 0.0
            self.critical_path = ()
            return
        self.critical_path_seconds = finish[best_key]
        path: List[str] = []
        cursor: Optional[str] = best_key
        while cursor is not None:
            path.append(cursor)
            cursor = predecessor[cursor]
        self.critical_path = tuple(reversed(path))


def _validate(tasks: Sequence[Task], done: Dict[str, Any]) -> None:
    keys = [task.key for task in tasks] + list(done)
    if len(set(keys)) != len(keys):
        duplicates = sorted({k for k in keys if keys.count(k) > 1})
        raise TaskGraphError(f"duplicate task keys: {duplicates}")
    known = set(keys)
    for task in tasks:
        missing = [dep for dep in task.deps if dep not in known]
        if missing:
            raise TaskGraphError(f"task {task.key!r} depends on unknown {missing}")


def _by_priority(ready: List[Task]) -> List[Task]:
    """Highest priority first; the sort is stable, so ties keep input order."""
    return sorted(ready, key=lambda task: -task.priority)


def _topological_order(tasks: Sequence[Task]) -> List[Task]:
    """Kahn's algorithm: priority, then input order, among ready tasks."""
    # Deps outside the graph (results passed in as ``done``) are satisfied.
    done = {dep for task in tasks for dep in task.deps} - {t.key for t in tasks}
    pending: List[Task] = list(tasks)
    ordered: List[Task] = []
    while pending:
        ready = [task for task in pending if all(d in done for d in task.deps)]
        if not ready:
            cycle = sorted(task.key for task in pending)
            raise TaskGraphError(f"dependency cycle among tasks: {cycle}")
        for task in _by_priority(ready):
            ordered.append(task)
            done.add(task.key)
        pending = [task for task in pending if task.key not in done]
    return ordered


#: Sentinel: no shared payload configured.
_NO_SHARED = object()

#: Per-process shared payload, set once per worker by the pool initializer
#: (so a heavyweight payload crosses the process boundary once per worker,
#: not once per task).
_WORKER_SHARED: Any = _NO_SHARED


def _set_worker_shared(value: Any) -> None:
    global _WORKER_SHARED
    _WORKER_SHARED = value


def _invoke_timed(
    fn: Callable[..., Any],
    dep_results: Dict[str, Any],
    args: Tuple,
    shared: Any = _NO_SHARED,
) -> Tuple[float, int, obs.Snapshot, Any]:
    """Module-level trampoline so the process backend can pickle the call.

    Returns ``(seconds, pid, registry delta, result)``: the clock runs
    around the task body only — *inside* the worker with the process
    backend, so queueing and pickle transfer are excluded — and the
    :mod:`repro.obs` delta is what the task counted in its process.
    """
    if shared is _NO_SHARED:
        shared = _WORKER_SHARED
    shared_args = () if shared is _NO_SHARED else (shared,)
    before = obs.snapshot()
    started = time.perf_counter()
    result = fn(dep_results, *shared_args, *args)
    seconds = time.perf_counter() - started
    return seconds, os.getpid(), obs.delta(before), result


def _record(stats: ExecutorStats, key: str, timed: Tuple) -> Any:
    """Book one :func:`_invoke_timed` outcome and return the task's result.

    Only another process's delta is merged: a task run in this process
    (serial or thread backend) counted into this registry already.
    """
    seconds, pid, counted, result = timed
    if pid != os.getpid():
        obs.merge(counted)
    stats.task_seconds[key] = seconds
    stats.task_pids[key] = pid
    return result


def _run_serial(
    tasks: Sequence[Task],
    shared: Any,
    stats: ExecutorStats,
    done: Dict[str, Any],
) -> Dict[str, Any]:
    results = dict(done)
    for task in _topological_order(tasks):
        dep_results = {dep: results[dep] for dep in task.deps}
        results[task.key] = _record(
            stats, task.key, _invoke_timed(task.fn, dep_results, task.args, shared)
        )
    return results


def _run_pooled(
    tasks: Sequence[Task],
    pool: Executor,
    shared: Any,
    stats: ExecutorStats,
    max_in_flight: int,
    done: Dict[str, Any],
) -> Dict[str, Any]:
    """Schedule on ``pool``; pass ``shared`` only for same-process pools
    (process pools receive it through the worker initializer instead).

    ``max_in_flight`` caps concurrent submissions at the worker count: the
    pools' internal queues are FIFO, so handing them every ready task at
    once would freeze the priority order at submission time — a chain task
    becoming ready later would queue behind already-submitted fan-out work.
    Keeping submissions at the worker count means every freed slot re-runs
    the priority selection over everything ready *now*.
    """
    results = dict(done)
    pending: List[Task] = _topological_order(tasks)
    in_flight: Dict[Any, str] = {}
    try:
        while pending or in_flight:
            # Critical-path first: among the ready tasks, submit the highest
            # priority ones first so chained work never waits behind fan-out.
            ready = _by_priority(
                [t for t in pending if all(d in results for d in t.deps)]
            )
            ready = ready[: max(0, max_in_flight - len(in_flight))]
            for task in ready:
                dep_results = {dep: results[dep] for dep in task.deps}
                # Never ship the sentinel across a pickle boundary: its
                # identity would not survive, so the worker falls back to its
                # own (initializer-set or absent) global.
                extra = () if shared is _NO_SHARED else (shared,)
                try:
                    future = pool.submit(
                        _invoke_timed, task.fn, dep_results, task.args, *extra
                    )
                except (OSError, PermissionError, NotImplementedError) as exc:
                    # submit() is where workers are actually spawned.
                    raise _PoolSpawnError(str(exc)) from exc
                in_flight[future] = task.key
            ready_keys = {task.key for task in ready}
            pending = [t for t in pending if t.key not in ready_keys]
            finished, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in finished:
                key = in_flight.pop(future)
                results[key] = _record(stats, key, future.result())
    finally:
        for future in in_flight:
            future.cancel()
    return results


def execute_tasks(
    tasks: Sequence[Task],
    n_workers: int = 1,
    kind: str = "process",
    shared: Any = _NO_SHARED,
    stats: Optional[ExecutorStats] = None,
    done: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Execute a task graph and return ``{task.key: result}``.

    Parameters
    ----------
    tasks:
        The task graph.  Dependencies must refer to keys within ``tasks``.
    n_workers:
        Maximum concurrent tasks; ``<= 1`` forces serial execution.
    kind:
        ``"process"`` (default), ``"thread"`` or ``"serial"``.
    shared:
        Optional payload handed to every task as ``fn(deps, shared, *args)``.
        The process backend ships it once per worker (through the pool
        initializer) rather than once per task — use it for large read-only
        inputs such as the experiment's prepared dataset.
    stats:
        Optional :class:`ExecutorStats` filled in place with per-task
        execution seconds and pids, the run's wall-clock, and the measured
        critical path.
    done:
        Results of tasks finished earlier (e.g. served from a cache), keyed
        like tasks: ``tasks`` may depend on them, and they are returned
        with the rest.
    """
    tasks = list(tasks)
    done = dict(done or {})
    stats = stats if stats is not None else ExecutorStats()
    _validate(tasks, done)
    if not tasks:
        stats._finalize(tasks, 0.0)
        return done
    started = time.perf_counter()
    try:
        return _dispatch(tasks, done, n_workers, kind, shared, stats)
    finally:
        stats._finalize(tasks, time.perf_counter() - started)


def _dispatch(
    tasks: List[Task],
    done: Dict[str, Any],
    n_workers: int,
    kind: str,
    shared: Any,
    stats: ExecutorStats,
) -> Dict[str, Any]:
    if n_workers <= 1 or kind == "serial":
        return _run_serial(tasks, shared, stats, done)
    if kind == "thread":
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            return _run_pooled(tasks, pool, shared, stats, n_workers, done)
    if kind != "process":
        raise ValueError(f"unknown executor kind {kind!r}")
    pool_kwargs: Dict[str, Any] = {"max_workers": n_workers}
    if shared is not _NO_SHARED:
        pool_kwargs.update(initializer=_set_worker_shared, initargs=(shared,))
    try:
        pool = ProcessPoolExecutor(**pool_kwargs)
    except (OSError, PermissionError, NotImplementedError) as exc:
        # Restricted sandboxes may forbid spawning processes; results are
        # schedule-independent, so serial execution only costs wall-clock.
        warnings.warn(
            f"process pool unavailable ({exc!r}); running all "
            f"{len(tasks)} tasks serially",
            RuntimeWarning,
            stacklevel=3,
        )
        return _run_serial(tasks, shared, stats, done)
    try:
        with pool:
            return _run_pooled(tasks, pool, _NO_SHARED, stats, n_workers, done)
    except (BrokenProcessPool, _PoolSpawnError) as exc:
        # Worker spawn refused at submit time, or the platform killed the
        # workers mid-run (sandbox limits, OOM of a forked child — but also
        # any native-code crash in a task, which this fallback would
        # otherwise mask; the warning keeps it visible).
        # Task-level exceptions — including OSError raised *inside* a task,
        # which arrives via future.result() — propagate to the caller
        # instead of triggering this fallback.
        warnings.warn(
            f"process pool died mid-run ({exc!r}); discarding partial "
            f"results and re-running all {len(tasks)} tasks serially",
            RuntimeWarning,
            stacklevel=3,
        )
        return _run_serial(tasks, shared, stats, done)
