"""Tests for the dependency-aware task executor."""

import time

import pytest

from repro.evaluation.executor import (
    ExecutorStats,
    Task,
    TaskGraphError,
    execute_tasks,
)


# Module-level so the process backend can pickle them.
def _const(deps, value):
    return value


def _sum_deps(deps, bonus):
    return sum(deps.values()) + bonus


def _fail(deps):
    raise RuntimeError("task exploded")


def _fail_oserror(deps):
    raise OSError("task-level I/O failure")


def _use_shared(deps, shared, scale):
    return shared["base"] * scale


def _graph():
    return [
        Task(key="a", fn=_const, args=(1,)),
        Task(key="b", fn=_const, args=(10,)),
        Task(key="c", fn=_sum_deps, args=(100,), deps=("a", "b")),
        Task(key="d", fn=_sum_deps, args=(1000,), deps=("c",)),
    ]


class TestSerial:
    def test_results_and_dep_propagation(self):
        results = execute_tasks(_graph(), n_workers=1)
        assert results == {"a": 1, "b": 10, "c": 111, "d": 1111}

    def test_empty_graph(self):
        assert execute_tasks([], n_workers=4) == {}

    def test_serial_kind_forces_in_process(self):
        results = execute_tasks(_graph(), n_workers=8, kind="serial")
        assert results["d"] == 1111

    def test_declaration_order_does_not_matter(self):
        results = execute_tasks(list(reversed(_graph())), n_workers=1)
        assert results == {"a": 1, "b": 10, "c": 111, "d": 1111}


class TestValidation:
    def test_duplicate_keys_raise(self):
        tasks = [Task(key="a", fn=_const, args=(1,))] * 2
        with pytest.raises(TaskGraphError, match="duplicate"):
            execute_tasks(tasks)

    def test_unknown_dep_raises(self):
        tasks = [Task(key="a", fn=_const, args=(1,), deps=("ghost",))]
        with pytest.raises(TaskGraphError, match="unknown"):
            execute_tasks(tasks)

    def test_cycle_raises(self):
        tasks = [
            Task(key="a", fn=_const, args=(1,), deps=("b",)),
            Task(key="b", fn=_const, args=(1,), deps=("a",)),
        ]
        with pytest.raises(TaskGraphError, match="cycle"):
            execute_tasks(tasks)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown executor kind"):
            execute_tasks(_graph(), n_workers=2, kind="fancy")


class TestParallelBackends:
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_matches_serial(self, kind):
        serial = execute_tasks(_graph(), n_workers=1)
        parallel = execute_tasks(_graph(), n_workers=3, kind=kind)
        assert parallel == serial

    def test_wide_fanout(self):
        tasks = [Task(key=f"t{i}", fn=_const, args=(i,)) for i in range(24)]
        tasks.append(
            Task(key="sum", fn=_sum_deps, args=(0,),
                 deps=tuple(f"t{i}" for i in range(24)))
        )
        results = execute_tasks(tasks, n_workers=4, kind="thread")
        assert results["sum"] == sum(range(24))

    def test_task_exception_propagates(self):
        tasks = [Task(key="boom", fn=_fail)]
        with pytest.raises(RuntimeError, match="task exploded"):
            execute_tasks(tasks, n_workers=2, kind="thread")

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_task_oserror_propagates_not_swallowed(self, kind):
        # An OSError raised *inside* a task is a task failure, not a
        # platform-cannot-spawn-processes signal: it must surface instead
        # of silently re-running the whole graph serially.
        tasks = [Task(key="boom", fn=_fail_oserror)]
        with pytest.raises(OSError, match="task-level I/O failure"):
            execute_tasks(tasks, n_workers=2, kind=kind)


class TestSpawnFallback:
    def test_spawn_refusal_at_submit_falls_back_to_serial(self, monkeypatch):
        # ProcessPoolExecutor spawns workers lazily at submit() time, which
        # is where a restricted sandbox refuses: the executor must degrade
        # to serial execution, not crash.
        import repro.evaluation.executor as executor_mod

        class RefusingPool:
            def __init__(self, **kwargs):
                pass

            def submit(self, *args, **kwargs):
                raise OSError("Operation not permitted")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", RefusingPool)
        # The fallback warns so masked worker crashes stay visible.
        with pytest.warns(RuntimeWarning, match="serially"):
            results = execute_tasks(_graph(), n_workers=2, kind="process")
        assert results == {"a": 1, "b": 10, "c": 111, "d": 1111}

    def test_pool_constructor_failure_falls_back_to_serial(self, monkeypatch):
        import repro.evaluation.executor as executor_mod

        def _refuse(**kwargs):
            raise PermissionError("no processes for you")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _refuse)
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = execute_tasks(_graph(), n_workers=2, kind="process")
        assert results == {"a": 1, "b": 10, "c": 111, "d": 1111}


def _record_key(deps, shared, key):
    shared["order"].append(key)
    return key


def _sleep_for(deps, seconds):
    time.sleep(seconds)
    return seconds


class TestPriority:
    def test_ready_tasks_run_highest_priority_first(self):
        shared = {"order": []}
        tasks = [
            Task(key="low", fn=_record_key, args=("low",), priority=0),
            Task(key="high", fn=_record_key, args=("high",), priority=10),
            Task(key="mid", fn=_record_key, args=("mid",), priority=5),
        ]
        execute_tasks(tasks, n_workers=1, shared=shared)
        assert shared["order"] == ["high", "mid", "low"]

    def test_priority_never_overrides_a_dependency(self):
        shared = {"order": []}
        tasks = [
            Task(key="urgent-but-blocked", fn=_record_key,
                 args=("urgent-but-blocked",), deps=("mundane",), priority=100),
            Task(key="mundane", fn=_record_key, args=("mundane",), priority=0),
        ]
        execute_tasks(tasks, n_workers=1, shared=shared)
        assert shared["order"] == ["mundane", "urgent-but-blocked"]

    def test_equal_priorities_keep_declaration_order(self):
        shared = {"order": []}
        tasks = [
            Task(key=f"t{i}", fn=_record_key, args=(f"t{i}",)) for i in range(4)
        ]
        execute_tasks(tasks, n_workers=1, shared=shared)
        assert shared["order"] == ["t0", "t1", "t2", "t3"]

    def test_late_ready_chain_task_preempts_queued_fanout(self):
        # Regression: submissions are capped at the worker count, so a
        # high-priority task becoming ready mid-run (a warm-start reduce)
        # is selected at the next free slot instead of queueing behind
        # fan-out tasks that were all handed to the pool's FIFO up front.
        from concurrent.futures import ThreadPoolExecutor

        from repro.evaluation.executor import _run_pooled

        shared = {"order": []}
        tasks = [
            Task(key="seed", fn=_record_key, args=("seed",)),
            Task(key="fan0", fn=_record_key, args=("fan0",)),
            Task(key="fan1", fn=_record_key, args=("fan1",)),
            Task(key="chain", fn=_record_key, args=("chain",),
                 deps=("seed",), priority=10),
        ]
        with ThreadPoolExecutor(max_workers=1) as pool:
            _run_pooled(tasks, pool, shared, ExecutorStats(), 1, {})
        assert shared["order"] == ["seed", "chain", "fan0", "fan1"]


class TestExecutorStats:
    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_every_task_is_timed(self, kind):
        stats = ExecutorStats()
        results = execute_tasks(_graph(), n_workers=2, kind=kind, stats=stats)
        assert results["d"] == 1111  # timing must not disturb results
        assert set(stats.task_seconds) == {"a", "b", "c", "d"}
        assert all(seconds >= 0.0 for seconds in stats.task_seconds.values())
        assert stats.wallclock_seconds > 0.0
        assert stats.critical_path_seconds <= stats.total_task_seconds + 1e-9

    def test_critical_path_follows_the_heavy_chain(self):
        # chain: a(0.05) -> c(0.05) -> d(0.01); b(0.01) is off-chain.
        tasks = [
            Task(key="a", fn=_sleep_for, args=(0.05,)),
            Task(key="b", fn=_sleep_for, args=(0.01,)),
            Task(key="c", fn=_sleep_for, args=(0.05,), deps=("a", "b")),
            Task(key="d", fn=_sleep_for, args=(0.01,), deps=("c",)),
        ]
        stats = ExecutorStats()
        execute_tasks(tasks, n_workers=1, stats=stats)
        assert stats.critical_path == ("a", "c", "d")
        expected = sum(stats.task_seconds[key] for key in ("a", "c", "d"))
        assert stats.critical_path_seconds == pytest.approx(expected)

    def test_empty_graph_yields_empty_stats(self):
        stats = ExecutorStats()
        assert execute_tasks([], n_workers=2, stats=stats) == {}
        assert stats.task_seconds == {}
        assert stats.critical_path == ()
        assert stats.critical_path_seconds == 0.0

    def test_stats_survive_the_serial_fallback(self, monkeypatch):
        import repro.evaluation.executor as executor_mod

        def _refuse(**kwargs):
            raise PermissionError("no processes for you")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", _refuse)
        stats = ExecutorStats()
        with pytest.warns(RuntimeWarning, match="process pool unavailable"):
            results = execute_tasks(
                _graph(), n_workers=2, kind="process", stats=stats
            )
        assert results["d"] == 1111
        assert set(stats.task_seconds) == {"a", "b", "c", "d"}


class TestSharedPayload:
    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_shared_reaches_every_task(self, kind):
        tasks = [
            Task(key=f"t{i}", fn=_use_shared, args=(i,)) for i in range(1, 5)
        ]
        results = execute_tasks(
            tasks, n_workers=2, kind=kind, shared={"base": 7}
        )
        assert results == {"t1": 7, "t2": 14, "t3": 21, "t4": 28}

    def test_without_shared_signature_is_unchanged(self):
        results = execute_tasks(_graph(), n_workers=2, kind="process")
        assert results["d"] == 1111


class TestDoneResults:
    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_tasks_read_finished_results_as_deps(self, kind):
        # "a" and "b" finished earlier (e.g. served from a cache): only the
        # remaining tasks run, and every result comes back.
        remaining = [task for task in _graph() if task.key in ("c", "d")]
        stats = ExecutorStats()
        results = execute_tasks(
            remaining, n_workers=2, kind=kind, stats=stats, done={"a": 1, "b": 10}
        )
        assert results == {"a": 1, "b": 10, "c": 111, "d": 1111}
        assert set(stats.task_seconds) == {"c", "d"}
        assert stats.critical_path == ("c", "d")

    def test_only_done_results(self):
        assert execute_tasks([], done={"a": 1}) == {"a": 1}

    def test_a_task_repeating_a_done_key_raises(self):
        with pytest.raises(TaskGraphError, match="duplicate"):
            execute_tasks(_graph(), done={"a": 1})
