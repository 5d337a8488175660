"""The counter-and-span registry (``repro.obs``) and what reaches the driver.

Every process keeps its own registry; the executor hands each pool task's
delta back with its result and the driver merges the ones from other
processes.  These tests pin that a run's ``extras["profile"]`` names the
task bodies of its pool workers, that the counts of worker-side work reach
the driver once on every backend, and that no profiler hook leaks into a
forked worker.
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

from repro import cli, obs
from repro.config import ScenarioConfig
from repro.core.policies import CallablePolicy
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import (
    ExperimentConfig,
    PreparedDataCache,
    clear_trace_cache,
    trace_cache_stats,
)
from repro.evaluation.registry import ApproachSpec, register_approach, unregister_approach
from repro.evaluation.runner import renewal_walk_stats
from repro.utils.timeutils import DAY

BODIES = {"run_rl_trial", "run_forest_fit", "run_split_group", "run_rl_reduce"}
STAGES = ("prepare_data", "execute_tasks", "aggregate")


class TestRegistry:
    def test_delta_sees_only_what_happened_since_the_snapshot(self):
        obs.count("test.before", 3)
        before = obs.snapshot()
        obs.count("test.after")
        obs.count("test.after", 2)
        with obs.span("test.block"):
            pass
        with obs.span("test.block"):
            pass
        delta = obs.delta(before)
        assert delta["counts"] == {"test.after": 3}
        assert set(delta["spans"]) == {"test.block"}
        calls, seconds = delta["spans"]["test.block"]
        assert calls == 2 and seconds >= 0.0

    def test_merge_adds_another_process_delta(self):
        before = obs.snapshot()
        obs.merge({"counts": {"test.merged": 4}, "spans": {"test.remote": (2, 1.5)}})
        delta = obs.delta(before)
        assert delta["counts"] == {"test.merged": 4}
        assert delta["spans"] == {"test.remote": (2, 1.5)}

    def test_counters_view_defaults_to_zero(self):
        assert obs.counters("test.never", ("a", "b")) == {"a": 0, "b": 0}

    def test_concurrent_counts_lose_no_update(self):
        """Thread tasks share the driver's registry: every count must land."""
        n_threads, n_counts = 8, 2000

        def work():
            for _ in range(n_counts):
                obs.count("test.threads")
                with obs.span("test.thread_span"):
                    pass

        before = obs.snapshot()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        delta = obs.delta(before)
        assert delta["counts"]["test.threads"] == n_threads * n_counts
        assert delta["spans"]["test.thread_span"][0] == n_threads * n_counts

    def test_span_counts_a_block_that_raises(self):
        before = obs.snapshot()
        with pytest.raises(RuntimeError):
            with obs.span("test.raises"):
                raise RuntimeError("boom")
        assert obs.delta(before)["spans"]["test.raises"][0] == 1


def _scenario():
    return ScenarioConfig.small(seed=11).with_duration(45 * DAY)


def _config(**overrides):
    return ExperimentConfig.fast().with_overrides(
        rl_episodes=5, rl_hyperparam_trials=2, charge_training_time=False, **overrides
    )


def _run(**overrides):
    """A fresh-cache experiment and its driver-side counter deltas."""
    clear_trace_cache()
    traces, walk = trace_cache_stats(), renewal_walk_stats()
    result = run_experiment(_scenario(), _config(**overrides), cache=PreparedDataCache())
    traces_after, walk_after = trace_cache_stats(), renewal_walk_stats()
    return (
        result,
        {key: traces_after[key] - traces[key] for key in traces},
        {key: walk_after[key] - walk[key] for key in walk},
    )


@pytest.fixture(scope="module")
def serial_run():
    return _run(executor_kind="serial")


class TestWorkerDeltas:
    def test_serial_profile_names_every_body_under_the_driver(self, serial_run):
        result, traces, walk = serial_run
        profile = result.extras["profile"]
        assert tuple(profile["spans"]) == STAGES
        assert set(profile["tasks"]) == BODIES
        for per_pid in profile["tasks"].values():
            assert set(per_pid) == {os.getpid()}
        timed = sum(
            seconds
            for per_pid in profile["tasks"].values()
            for _, seconds in per_pid.values()
        )
        assert timed == pytest.approx(result.executor_stats.total_task_seconds)
        counts = profile["counts"]
        assert counts["trace_cache.misses"] == traces["misses"] > 0
        assert counts["renewal_walk.rounds"] == walk["rounds"] > 0

    def test_process_workers_report_their_bodies_and_counts(self, serial_run):
        _, serial_traces, serial_walk = serial_run
        result, traces, walk = _run(n_workers=2, executor_kind="process")
        profile = result.extras["profile"]
        assert set(profile["tasks"]) == BODIES
        pids = {pid for per_pid in profile["tasks"].values() for pid in per_pid}
        assert len(pids) == 2 and os.getpid() not in pids
        # The workers' counts reached the driver's registry, once each: every
        # task makes the same lookups and walks on any backend.
        assert traces["misses"] > 0 and walk["rounds"] > 0
        assert sum(traces.values()) == sum(serial_traces.values())
        assert walk == serial_walk
        assert profile["counts"]["trace_cache.misses"] == traces["misses"]
        assert profile["counts"]["renewal_walk.rounds"] == walk["rounds"]

    def test_thread_backend_counts_each_lookup_once(self, serial_run):
        _, serial_traces, serial_walk = serial_run
        result, traces, walk = _run(n_workers=2, executor_kind="thread")
        # Thread tasks count into the driver's own registry; merging their
        # deltas as well would double every count.
        assert sum(traces.values()) == sum(serial_traces.values())
        assert walk == serial_walk
        assert result.extras["profile"]["counts"]["trace_cache.misses"] == (
            traces["misses"]
        )
        for per_pid in result.extras["profile"]["tasks"].values():
            assert set(per_pid) == {os.getpid()}


class TestNoInheritedProfiler:
    def test_pool_worker_runs_without_a_profile_hook(self, tmp_path, capsys):
        """A forked worker must not inherit a live profiler from the driver:
        it would profile every call and throw the data away."""
        seen = tmp_path / "worker.txt"

        def build(ctx, config, factory):
            with open(seen, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()} {sys.getprofile() is None}\n")
            return CallablePolicy(lambda context: False, name="Test-hook")

        register_approach(ApproachSpec(name="Test-hook", build=build, order=65))
        try:
            argv = [
                "run", "--duration-days", "45", "--seed", "11", "--fast",
                "--episodes", "5", "--workers", "2", "--executor", "process",
                "--no-charge-training-time", "--profile",
            ]
            assert cli.main(argv) == 0
        finally:
            unregister_approach("Test-hook")
        records = [line.split() for line in seen.read_text().splitlines()]
        assert records
        assert all(int(pid) != os.getpid() for pid, _ in records)
        assert all(clean == "True" for _, clean in records)
        assert "run_rl_trial" in capsys.readouterr().out
