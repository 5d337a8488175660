"""Subprocess entry point for the multi-worker integration tests.

Runs one distributed-sweep worker against a shared on-disk store and
prints its :class:`~repro.distributed.WorkerOutcome` as one JSON line, so
the parent test can assert the exactly-once claim metrics.  With
``--hang-after-claim`` it instead claims the first pending point, drops a
``CLAIMED`` sentinel file next to the store, and sleeps without ever
heartbeating — the stand-in for a worker killed mid-point.

Invoked as ``python tests/distributed/_worker.py --store DIR ...`` with
``PYTHONPATH=src``; kept importable so the tests share its spec/config
builders instead of duplicating them.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def tiny_config():
    from repro.evaluation.pipeline import ExperimentConfig

    return ExperimentConfig(
        rl_episodes=4,
        rl_hyperparam_trials=1,
        rl_hidden_sizes=(8,),
        rf_n_estimators=3,
        rf_max_depth=3,
        threshold_grid_size=3,
        charge_training_time=False,
        executor_kind="serial",
    )


def golden_config():
    """The golden harness's small-but-complete schedule (serial)."""
    from repro.evaluation.pipeline import ExperimentConfig

    return ExperimentConfig(
        rl_episodes=15,
        rl_hyperparam_trials=1,
        rl_hidden_sizes=(16, 8),
        rf_n_estimators=5,
        rf_max_depth=5,
        threshold_grid_size=6,
        charge_training_time=False,
    )


def build_spec(seeds):
    from repro.config import ScenarioConfig
    from repro.evaluation.sweep import SweepSpec
    from repro.utils.timeutils import DAY

    base = ScenarioConfig.small(seed=11).with_duration(45 * DAY)
    return SweepSpec(base=base, seeds=tuple(seeds))


def golden_spec():
    """One point: exactly the golden harness's ``ScenarioConfig.small()``."""
    from repro.config import ScenarioConfig
    from repro.evaluation.sweep import SweepSpec

    return SweepSpec(base=ScenarioConfig.small())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--lease-ttl", type=float, default=None)
    parser.add_argument("--poll-seconds", type=float, default=0.1)
    parser.add_argument("--seeds", default="11,12")
    parser.add_argument(
        "--golden",
        action="store_true",
        help="use the golden harness's spec/config instead of the tiny ones",
    )
    parser.add_argument(
        "--hang-after-claim",
        action="store_true",
        help="claim the first pending point, then sleep forever (no "
        "heartbeats) — simulates a worker about to be killed",
    )
    args = parser.parse_args(argv)

    from repro.distributed import run_sweep_worker
    from repro.store import ArtifactStore

    if args.golden:
        spec, config = golden_spec(), golden_config()
    else:
        spec = build_spec(int(s) for s in args.seeds.split(","))
        config = tiny_config()
    store = ArtifactStore(args.store)

    if args.hang_after_claim:
        manager = store.lease_manager(
            owner=args.worker_id or "hanging", ttl_seconds=args.lease_ttl
        )
        for point in spec.points():
            key = store.result_key(point.scenario, config)
            if store.load_result_by_key(key) is not None:
                continue
            lease = manager.claim(key, label=point.label)
            if lease is not None:
                sentinel = Path(args.store).parent / "CLAIMED"
                sentinel.write_text(point.label)
                time.sleep(600.0)  # killed long before this returns
                return 0
        return 1  # nothing left to claim: the test setup is wrong

    outcome = run_sweep_worker(
        spec,
        config,
        store,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        poll_seconds=args.poll_seconds,
    )
    print(
        json.dumps(
            {
                "worker_id": outcome.worker_id,
                "computed": outcome.computed,
                "loaded": outcome.loaded,
                "pending": outcome.pending,
                "conflicts": outcome.conflicts,
                "reclaims": outcome.reclaims,
                "reduced": outcome.reduced,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
