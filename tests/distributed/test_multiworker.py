"""Multi-process distributed sweeps: the acceptance tests of the subsystem.

Real worker *processes* (``_worker.py``) share one on-disk store:

* Two claim-mode workers racing over the same sweep compute every point
  exactly once, and the reduced result is bit-identical (modulo per-point
  wall-clock, which :func:`results_equivalent` zeroes) to a single-process
  :func:`run_sweep` of the same spec.
* A worker killed mid-point leaves an expired lease; a later worker
  reclaims it and the sweep still completes with the identical result —
  points are never lost and never double-counted.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.distributed import reduce_sweep, results_equivalent, sweep_status
from repro.evaluation.sweep import run_sweep
from repro.store import ArtifactStore

from tests.distributed._worker import build_spec, tiny_config

REPO = Path(__file__).resolve().parents[2]
WORKER = Path(__file__).with_name("_worker.py")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _spawn(store_dir, *extra):
    return subprocess.Popen(
        [sys.executable, str(WORKER), "--store", str(store_dir), *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=str(REPO),
    )


def _outcome(proc, timeout=600):
    stdout, stderr = proc.communicate(timeout=timeout)
    assert proc.returncode == 0, f"worker failed:\n{stderr}"
    return json.loads(stdout.strip().splitlines()[-1])


class TestTwoWorkerClaimSweep:
    def test_exactly_once_and_bit_identical(self, tmp_path):
        spec, config = build_spec((11, 12)), tiny_config()
        store_dir = tmp_path / "store"

        workers = [
            _spawn(store_dir, "--worker-id", f"w{i}")
            for i in range(2)
        ]
        outcomes = [_outcome(proc) for proc in workers]

        # Exactly once: the computed sets partition the points.
        computed = sorted(
            label for outcome in outcomes for label in outcome["computed"]
        )
        assert computed == ["seed=11", "seed=12"]
        assert all(outcome["pending"] == [] for outcome in outcomes)
        # Whoever saw the last point land reduced the sweep.
        assert any(outcome["reduced"] for outcome in outcomes)

        store = ArtifactStore(store_dir)
        distributed = reduce_sweep(spec, config, store)
        assert distributed is not None
        single = run_sweep(spec, config)
        assert results_equivalent(distributed, single)
        # Everything cleaned up: no leases left behind.
        assert store.list_leases() == []


class TestKilledWorkerReclaim:
    def test_killed_workers_point_is_reclaimed_and_completed(self, tmp_path):
        spec, config = build_spec((21,)), tiny_config()
        store_dir = tmp_path / "store"
        sentinel = tmp_path / "CLAIMED"

        hanging = _spawn(
            store_dir,
            "--hang-after-claim",
            "--seeds", "21",
            "--worker-id", "doomed",
            "--lease-ttl", "1.0",
        )
        try:
            deadline = time.monotonic() + 60
            while not sentinel.exists():
                assert hanging.poll() is None, "hanging worker died early"
                assert time.monotonic() < deadline, "worker never claimed"
                time.sleep(0.05)
            assert sentinel.read_text() == "seed=21"

            store = ArtifactStore(store_dir)
            states = {s.label: s for s in sweep_status(spec, config, store)}
            assert states["seed=21"].state == "leased"
            assert states["seed=21"].owner == "doomed"
        finally:
            hanging.send_signal(signal.SIGKILL)
            hanging.wait(timeout=30)

        # The dead worker's lease goes stale after its 1 s TTL; a fresh
        # claim worker must reclaim the point and finish the sweep.
        rescuer = _spawn(
            store_dir,
            "--seeds", "21",
            "--worker-id", "rescuer",
            "--lease-ttl", "1.0",
        )
        outcome = _outcome(rescuer)
        assert outcome["computed"] == ["seed=21"]
        assert outcome["reclaims"] == 1
        assert outcome["reduced"]

        store = ArtifactStore(store_dir)
        distributed = reduce_sweep(spec, config, store)
        assert distributed is not None
        assert results_equivalent(distributed, run_sweep(spec, config))
