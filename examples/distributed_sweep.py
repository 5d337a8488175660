#!/usr/bin/env python
"""Distributed sweep: N workers, one shared store, bit-identical results.

The paper's evaluation grids (Figures 3/5/7) are embarrassingly parallel —
every sweep point is an independent experiment.  :mod:`repro.distributed`
scales :func:`run_sweep` across processes and machines with **no cluster
dependency**: workers share nothing but an :class:`ArtifactStore`
directory, and coordinate through atomic store leases (claim → heartbeat →
publish → release; a killed worker's lease expires and any peer reclaims
its point).

This example runs a three-seed sweep two ways in one process —

1. the plain single-process ``run_sweep`` baseline,
2. two claim workers (dynamic work stealing), launched here as threads to
   keep the example self-contained; in production each would be a
   ``python -m repro sweep ... --store DIR --claim`` process on its own
   machine,

and verifies both produce bit-identical scientific results (per-point
wall-clock, a diagnostic of whichever process ran the point, is excluded
by ``results_equivalent``).

The same flow from the command line, one worker per machine on a shared
filesystem::

    machine-a$ python -m repro sweep --seeds 7,8,9 --fast \
                   --store /shared/runs --claim
    machine-b$ python -m repro sweep --seeds 7,8,9 --fast \
                   --store /shared/runs --claim
    anywhere$  python -m repro sweep --seeds 7,8,9 --fast \
                   --store /shared/runs --status
"""

from __future__ import annotations

import tempfile
import threading

from repro.config import ScenarioConfig
from repro.distributed import (
    reduce_sweep,
    results_equivalent,
    run_sweep_worker,
    sweep_status,
)
from repro.evaluation import ExperimentConfig, SweepSpec, run_sweep
from repro.store import ArtifactStore

# Small enough for a laptop minute.
CONFIG = ExperimentConfig(
    rl_episodes=10,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(16, 8),
    rf_n_estimators=5,
    rf_max_depth=5,
    threshold_grid_size=5,
)
SPEC = SweepSpec(base=ScenarioConfig.small(), seeds=(7, 8, 9))


def run_workers(store: ArtifactStore) -> list:
    """Two concurrent claim workers against one store; returns their outcomes."""
    outcomes = [None, None]

    def work(i: int) -> None:
        outcomes[i] = run_sweep_worker(
            SPEC, CONFIG, store, worker_id=f"w{i}", lease_ttl=30.0
        )

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def main() -> None:
    print("single-process baseline ...")
    baseline = run_sweep(SPEC, CONFIG)

    with tempfile.TemporaryDirectory() as scratch:
        store = ArtifactStore(f"{scratch}/runs")
        print("\ntwo claim workers, one store ...")
        for outcome in run_workers(store):
            print(f"  {outcome.summary()}")
        for status in sweep_status(SPEC, CONFIG, store):
            print(f"  {status.describe()}")
        result = reduce_sweep(SPEC, CONFIG, store)
        assert result is not None, "sweep incomplete"
        identical = results_equivalent(result, baseline)
        print(f"  bit-identical to single-process run_sweep: {identical}")
        assert identical

    print("\nreduced sweep table (identical for both executions):")
    print(baseline.table())


if __name__ == "__main__":
    main()
