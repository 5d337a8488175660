"""Concurrent-writer races against one on-disk store.

Real processes, one shared :class:`LocalFSBackend` directory:

* ``put_if_absent`` admits exactly one winner per key under a
  multi-process hammer — the primitive every claim rests on.
* Two processes saving the *same* result / prepared product concurrently
  leave a valid artifact (content-keyed writes are idempotent: last
  ``os.replace`` wins with identical bytes).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.config import ScenarioConfig
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import ExperimentConfig, prepare_data
from repro.store import ArtifactStore, LocalFSBackend
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
SCENARIO = ScenarioConfig.small(seed=11).with_duration(45 * DAY)

N_PROCS = 6
N_KEYS = 10


def _hammer(args):
    """One contender: race put_if_absent on every key, return the wins."""
    root, contender = args
    backend = LocalFSBackend(root)
    wins = []
    for k in range(N_KEYS):
        if backend.put_if_absent(
            f"leases/key{k}.json", b"contender-%d" % contender
        ):
            wins.append(k)
    return contender, wins


def _save_result(args):
    """One writer: rebuild the result from its dict form and save it."""
    root, payload = args
    from repro.evaluation.pipeline import ExperimentResult

    store = ArtifactStore(root)
    result = ExperimentResult.from_dict(payload)
    return store.save_result(SCENARIO, TINY, result)


def _save_prepared(root):
    store = ArtifactStore(root)
    return store.save_prepared(prepare_data(SCENARIO, TINY))


class TestPutIfAbsentHammer:
    def test_exactly_one_winner_per_key(self, tmp_path):
        root = tmp_path / "store"
        LocalFSBackend(root)  # pre-create so contenders race only on keys
        with multiprocessing.Pool(N_PROCS) as pool:
            outcomes = pool.map(
                _hammer, [(str(root), i) for i in range(N_PROCS)]
            )
        winners_per_key = {k: [] for k in range(N_KEYS)}
        for contender, wins in outcomes:
            for k in wins:
                winners_per_key[k].append(contender)
        assert all(len(winners) == 1 for winners in winners_per_key.values())
        # And each stored value is the winner's complete payload.
        backend = LocalFSBackend(root)
        for k, (winner,) in winners_per_key.items():
            assert backend.get(f"leases/key{k}.json") == b"contender-%d" % winner


class TestConcurrentArtifactWrites:
    @pytest.fixture(scope="class")
    def tiny_result(self):
        return run_experiment(SCENARIO, TINY)

    def test_racing_save_result_leaves_a_valid_artifact(
        self, tmp_path, tiny_result
    ):
        root = tmp_path / "store"
        ArtifactStore(root)
        payload = tiny_result.to_dict()
        with multiprocessing.Pool(2) as pool:
            keys = pool.map(_save_result, [(str(root), payload)] * 2)
        assert keys[0] == keys[1]
        reloaded = ArtifactStore(root).load_result(SCENARIO, TINY)
        assert reloaded is not None
        assert reloaded.to_dict() == payload

    def test_racing_save_prepared_leaves_a_loadable_product(self, tmp_path):
        root = tmp_path / "store"
        ArtifactStore(root)
        with multiprocessing.Pool(2) as pool:
            keys = pool.map(_save_prepared, [str(root)] * 2)
        assert keys[0] == keys[1]
        store = ArtifactStore(root)
        assert store.load_prepared(SCENARIO, keys[0]) is not None
        assert store.list_prepared() == [keys[0]]
