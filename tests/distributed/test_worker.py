"""The worker/reduce/status layer (:mod:`repro.distributed`) in one process.

One *real* tiny experiment is computed once per module; a fake
``compute_fn`` then hands that result to every point, so these tests
exercise the coordination protocol — claims, conflicts, reclaim, resume,
reduce, status — at unit-test speed.  Real multi-process computation is
covered by ``test_multiworker.py`` and the golden harness.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.config import ScenarioConfig
from repro.distributed import (
    PointStatus,
    reduce_sweep,
    results_equivalent,
    run_sweep_worker,
    sweep_scientific_json,
    sweep_status,
)
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import ExperimentConfig
from repro.evaluation.sweep import SweepSpec
from repro.store import ArtifactStore, DictBackend
from repro.utils.timeutils import DAY

TINY = ExperimentConfig(
    rl_episodes=4,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(8,),
    rf_n_estimators=3,
    rf_max_depth=3,
    threshold_grid_size=3,
    charge_training_time=False,
    executor_kind="serial",
)

BASE = ScenarioConfig.small(seed=11).with_duration(45 * DAY)
SPEC = SweepSpec(base=BASE, seeds=(11, 12, 13))


@pytest.fixture(scope="module")
def tiny_result():
    """One real result, reused by the fake compute of every point."""
    return run_experiment(BASE, TINY)


@pytest.fixture()
def store():
    return ArtifactStore(backend=DictBackend())


def fake_compute(tiny_result, log=None):
    def compute(scenario, config, cache):
        if log is not None:
            log.append(scenario.seed)
        return tiny_result

    return compute


class TestArgValidation:
    def test_needs_a_store(self):
        with pytest.raises(ValueError, match="ArtifactStore"):
            run_sweep_worker(SPEC, TINY, None)


class TestClaimMode:
    def test_single_worker_computes_everything_and_reduces(
        self, store, tiny_result
    ):
        log = []
        outcome = run_sweep_worker(
            SPEC, TINY, store, worker_id="w1",
            compute_fn=fake_compute(tiny_result, log),
        )
        assert sorted(outcome.computed) == ["seed=11", "seed=12", "seed=13"]
        assert outcome.loaded == [] and outcome.pending == []
        assert sorted(log) == [11, 12, 13]
        assert outcome.reduced and outcome.result is not None
        assert outcome.result.labels == ["seed=11", "seed=12", "seed=13"]
        assert store.list_leases() == []  # all released

    def test_second_worker_loads_everything(self, store, tiny_result):
        run_sweep_worker(
            SPEC, TINY, store, worker_id="w1",
            compute_fn=fake_compute(tiny_result),
        )
        log = []
        outcome = run_sweep_worker(
            SPEC, TINY, store, worker_id="w2",
            compute_fn=fake_compute(tiny_result, log),
        )
        assert outcome.computed == [] and log == []
        assert sorted(outcome.loaded) == ["seed=11", "seed=12", "seed=13"]

    def test_exactly_once_across_interleaved_workers(self, store, tiny_result):
        # Worker 2's pass runs from inside worker 1's compute of the first
        # point: w1 holds that point's lease, so w2 must skip it (conflict),
        # compute the remaining points, and the union stays exactly-once.
        state = {"fired": False}
        log = []

        def w1_compute(scenario, config, cache):
            log.append(scenario.seed)
            if not state["fired"]:
                state["fired"] = True
                inner = run_sweep_worker(
                    SPEC, TINY, store, worker_id="w2",
                    wait=False, compute_fn=fake_compute(tiny_result, log),
                    reduce=False,
                )
                assert inner.conflicts >= 1
                state["inner"] = inner
            return tiny_result

        outcome = run_sweep_worker(
            SPEC, TINY, store, worker_id="w1",
            compute_fn=w1_compute,
        )
        inner = state["inner"]
        assert sorted(outcome.computed + inner.computed) == [
            "seed=11", "seed=12", "seed=13",
        ]
        assert sorted(log) == [11, 12, 13]  # every point computed once

    def test_wait_false_leaves_foreign_leases_pending(self, store, tiny_result):
        blocker = store.lease_manager(owner="other", ttl_seconds=60)
        first_key = store.result_key(SPEC.points()[0].scenario, TINY)
        assert blocker.claim(first_key, label="seed=11") is not None
        outcome = run_sweep_worker(
            SPEC, TINY, store, worker_id="w1", wait=False,
            compute_fn=fake_compute(tiny_result),
        )
        assert outcome.pending == ["seed=11"]
        assert sorted(outcome.computed) == ["seed=12", "seed=13"]
        assert outcome.conflicts >= 1
        assert not outcome.reduced  # the sweep is not complete

    def test_expired_foreign_lease_is_reclaimed(self, store, tiny_result):
        dead = store.lease_manager(owner="dead", ttl_seconds=0.01)
        first_key = store.result_key(SPEC.points()[0].scenario, TINY)
        assert dead.claim(first_key, label="seed=11") is not None
        time.sleep(0.05)
        outcome = run_sweep_worker(
            SPEC, TINY, store, worker_id="w1",
            compute_fn=fake_compute(tiny_result),
        )
        assert outcome.reclaims == 1
        assert sorted(outcome.computed) == ["seed=11", "seed=12", "seed=13"]
        assert outcome.reduced

    def test_waiting_worker_finishes_when_the_peer_publishes(
        self, store, tiny_result
    ):
        # A foreign live lease blocks the point; the "peer" publishes the
        # result mid-wait, and the waiting worker picks it up as loaded.
        peer = store.lease_manager(owner="peer", ttl_seconds=60)
        point = SPEC.points()[0]
        peer_lease = peer.claim(store.result_key(point.scenario, TINY))
        state = {"published": False}

        def compute(scenario, config, cache):
            if not state["published"]:
                state["published"] = True
                store.save_result(point.scenario, TINY, tiny_result)
                peer.release(peer_lease)
            return tiny_result

        outcome = run_sweep_worker(
            SPEC, TINY, store, worker_id="w1",
            poll_seconds=0.01, compute_fn=compute,
        )
        assert outcome.loaded == ["seed=11"]
        assert sorted(outcome.computed) == ["seed=12", "seed=13"]
        assert outcome.reduced

    def test_a_result_published_during_the_claim_is_loaded(self, store, tiny_result):
        # The race: a point has no result when checked, then a peer saves it
        # and releases its lease just before this worker's claim succeeds.
        points = {store.result_key(p.scenario, TINY): p for p in SPEC.points()}
        make_manager = store.lease_manager

        def lease_manager(**kwargs):
            manager = make_manager(**kwargs)
            claim = manager.claim

            def racing_claim(result_key, **claim_kwargs):
                lease = claim(result_key, **claim_kwargs)
                assert lease is not None
                store.save_result(points[result_key].scenario, TINY, tiny_result)
                return lease

            manager.claim = racing_claim
            return manager

        store.lease_manager = lease_manager
        log = []
        outcome = run_sweep_worker(
            SPEC, TINY, store, worker_id="w1",
            compute_fn=fake_compute(tiny_result, log),
        )
        assert log == [] and outcome.computed == []
        assert sorted(outcome.loaded) == ["seed=11", "seed=12", "seed=13"]
        assert store.list_leases() == []  # every claimed lease was released
        assert outcome.reduced


class TestUnreadableResult:
    """A truncated result is not done: it is reported pending and recomputed."""

    def test_truncated_point_is_pending_and_recomputed(self, store, tiny_result):
        spec = SweepSpec(base=BASE, seeds=(11, 12))
        run_sweep_worker(spec, TINY, store, compute_fn=fake_compute(tiny_result))
        key = store.result_key(spec.points()[1].scenario, TINY)
        path = f"results/{key}.json"
        truncated = store.backend.get(path)[:50]

        store.backend.put(path, truncated)
        with pytest.warns(RuntimeWarning, match=f"{key} is unreadable"):
            states = {s.label: s.state for s in sweep_status(spec, TINY, store)}
        assert states == {"seed=11": "done", "seed=12": "pending"}

        store.backend.put(path, truncated)
        log = []
        with pytest.warns(RuntimeWarning, match=f"{key} is unreadable"):
            outcome = run_sweep_worker(
                spec, TINY, store, compute_fn=fake_compute(tiny_result, log)
            )
        assert log == [12]
        assert outcome.computed == ["seed=12"] and outcome.loaded == ["seed=11"]
        assert outcome.reduced and outcome.result.labels == ["seed=11", "seed=12"]


class TestReduce:
    def test_reduce_of_incomplete_sweep_is_none(self, store):
        assert reduce_sweep(SPEC, TINY, store) is None

    def test_reduce_assembles_and_persists_the_manifest(
        self, store, tiny_result
    ):
        run_sweep_worker(
            SPEC, TINY, store, reduce=False,
            compute_fn=fake_compute(tiny_result),
        )
        assert store.list_sweeps() == []  # reduce=False suppressed it
        result = reduce_sweep(SPEC, TINY, store)
        assert result is not None
        assert result.labels == ["seed=11", "seed=12", "seed=13"]
        assert len(store.list_sweeps()) == 1
        # Idempotent: reducing again changes nothing.
        assert reduce_sweep(SPEC, TINY, store) is not None
        assert len(store.list_sweeps()) == 1


class TestStatus:
    def test_status_tracks_the_point_lifecycle(self, store, tiny_result):
        points = SPEC.points()
        states = {s.label: s for s in sweep_status(SPEC, TINY, store)}
        assert all(s.state == "pending" for s in states.values())

        manager = store.lease_manager(owner="w1", ttl_seconds=60)
        manager.claim(store.result_key(points[0].scenario, TINY), label="seed=11")
        store.save_result(points[1].scenario, TINY, tiny_result)

        states = {s.label: s for s in sweep_status(SPEC, TINY, store)}
        assert states["seed=11"].state == "leased"
        assert states["seed=11"].owner == "w1"
        assert states["seed=11"].heartbeat_age >= 0.0
        assert not states["seed=11"].expired
        assert states["seed=12"].state == "done"
        assert states["seed=13"].state == "pending"
        assert "leased by w1" in states["seed=11"].describe()
        assert states["seed=12"].describe() == "seed=12: done"

    def test_expired_lease_is_flagged(self, store):
        manager = store.lease_manager(owner="w1", ttl_seconds=0.01)
        point = SPEC.points()[0]
        manager.claim(store.result_key(point.scenario, TINY), label="seed=11")
        time.sleep(0.05)
        states = {s.label: s for s in sweep_status(SPEC, TINY, store)}
        assert states["seed=11"].expired
        assert "EXPIRED" in states["seed=11"].describe()


class TestEquivalence:
    def test_wallclock_is_ignored_everything_else_is_not(
        self, store, tiny_result
    ):
        run_sweep_worker(
            SPEC, TINY, store, compute_fn=fake_compute(tiny_result)
        )
        a = reduce_sweep(SPEC, TINY, store)

        perturbed = dict(a.results)
        perturbed["seed=11"] = dataclasses.replace(
            a.results["seed=11"], wallclock_seconds=12345.0
        )
        b = dataclasses.replace(a, results=perturbed)
        assert results_equivalent(a, b)

        changed = dict(a.results)
        changed["seed=11"] = dataclasses.replace(
            a.results["seed=11"], mitigation_cost_node_hours=999.0
        )
        c = dataclasses.replace(a, results=changed)
        assert not results_equivalent(a, c)

    def test_scientific_json_zeroes_every_point_wallclock(
        self, store, tiny_result
    ):
        run_sweep_worker(
            SPEC, TINY, store, compute_fn=fake_compute(tiny_result)
        )
        a = reduce_sweep(SPEC, TINY, store)
        assert '"wallclock_seconds": 12345.0' not in sweep_scientific_json(
            dataclasses.replace(
                a,
                results={
                    label: dataclasses.replace(r, wallclock_seconds=12345.0)
                    for label, r in a.results.items()
                },
            )
        )
