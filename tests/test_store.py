"""The disk-backed :class:`repro.store.ArtifactStore`.

Covers the three artifact families (prepared data, experiment results,
sweep manifests), the content-key semantics (evaluation parameters shared,
scheduling knobs ignored), and the golden-vs-store guarantee: a stored and
reloaded result is field-identical to the freshly computed one.
"""

from __future__ import annotations

import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import (
    ExperimentConfig,
    PreparedDataCache,
    prepare_data,
    prepared_data_key,
)
from repro.serialization import SchemaError
from repro.store import ArtifactStore
from repro.store.backends import DictBackend
from repro.utils.timeutils import DAY
from repro.serialization import canonical_json, tag


SCENARIO = ScenarioConfig.small(seed=11).with_duration(45 * DAY)

#: Cheapest config that exercises every approach group.
TINY = ExperimentConfig(
    rl_episodes=5,
    rl_hyperparam_trials=1,
    rl_hidden_sizes=(8, 8),
    rf_n_estimators=3,
    rf_max_depth=3,
    threshold_grid_size=3,
    charge_training_time=False,
    executor_kind="serial",
)


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "runs")


class TestMarker:
    def test_store_creates_and_reopens_marker(self, tmp_path):
        root = tmp_path / "runs"
        ArtifactStore(root)
        assert (root / "store.json").exists()
        ArtifactStore(root)  # idempotent reopen

    def test_foreign_marker_rejected(self, tmp_path):
        root = tmp_path / "runs"
        root.mkdir()
        (root / "store.json").write_text(canonical_json(tag("not_a_store", {})))
        with pytest.raises(SchemaError):
            ArtifactStore(root)


class TestPreparedData:
    def test_roundtrip_rebuilds_identical_product(self, store):
        prepared = prepare_data(SCENARIO, TINY)
        key = store.save_prepared(prepared)
        assert key == prepared.data_key
        loaded = store.load_prepared(SCENARIO, key)
        assert loaded is not None
        assert loaded.scenario == SCENARIO
        assert loaded.reduction_report == prepared.reduction_report
        assert loaded.data_key == prepared_data_key(SCENARIO, TINY)
        assert sorted(loaded.tracks) == sorted(prepared.tracks)
        for node, track in prepared.tracks.items():
            other = loaded.tracks[node]
            assert np.array_equal(track.times, other.times)
            assert np.array_equal(track.features, other.features)
            assert np.array_equal(track.is_ue, other.is_ue)
        assert loaded.sampler.job_log == prepared.sampler.job_log

    def test_non_finite_job_column_is_rejected_on_load(self, store):
        prepared = prepare_data(SCENARIO, TINY)
        key = store.save_prepared(prepared)
        path = f"prepared/{key}/arrays.npz"
        with np.load(io.BytesIO(store.backend.get(path))) as archive:
            arrays = dict(archive)
        arrays["job_end"][0] = np.nan
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        store.backend.put(path, buffer.getvalue())
        with pytest.raises(ValueError, match="non-finite"):
            store.load_prepared(SCENARIO, key)

    def test_miss_returns_none(self, store):
        key = prepared_data_key(SCENARIO, TINY)
        assert store.load_prepared(SCENARIO, key) is None
        assert not store.has_prepared(key)

    def test_evaluation_parameters_share_one_entry(self, store):
        """Same key semantics as the in-memory cache: cost/restartable excluded."""
        prepared = prepare_data(SCENARIO, TINY)
        store.save_prepared(prepared)
        cheaper = SCENARIO.with_mitigation_cost(10.0).with_restartable(False)
        key = prepared_data_key(cheaper, TINY)
        assert key == prepared.data_key
        loaded = store.load_prepared(cheaper, key)
        assert loaded is not None
        # Re-bound to the requesting scenario, not the saved one.
        assert loaded.scenario == cheaper
        assert loaded.data_key == prepared_data_key(cheaper, TINY)

    def test_data_axes_get_distinct_entries(self):
        base_key = prepared_data_key(SCENARIO, TINY)
        assert prepared_data_key(SCENARIO.with_seed(99), TINY) != base_key
        assert prepared_data_key(SCENARIO.with_manufacturer(1), TINY) != base_key
        assert prepared_data_key(SCENARIO.with_job_scale(2.0), TINY) != base_key

    def test_spill_backend_loads_without_prepare_calls(self, store):
        writer = PreparedDataCache(spill=store)
        writer.get(SCENARIO, TINY)
        assert writer.prepare_calls == 1
        assert writer.spill_saves == 1

        reader = PreparedDataCache(spill=store)  # fresh session
        prepared = reader.get(SCENARIO, TINY)
        assert reader.prepare_calls == 0
        assert reader.spill_hits == 1
        assert prepared.scenario == SCENARIO
        # Second get is a pure memory hit.
        reader.get(SCENARIO, TINY)
        assert reader.hits == 1
        assert reader.spill_hits == 1

    def test_ingested_logs_spill_and_reload(self, store, raw_error_log):
        writer = PreparedDataCache(spill=store)
        written = writer.get(SCENARIO, TINY, error_log=raw_error_log)
        assert writer.spill_saves == 1
        assert store.list_prepared() == [written.data_key]
        assert written.data_key != prepared_data_key(SCENARIO, TINY)

        reader = PreparedDataCache(spill=store)  # fresh session
        loaded = reader.get(SCENARIO, TINY, error_log=raw_error_log)
        assert reader.prepare_calls == 0
        assert reader.spill_hits == 1
        assert loaded.data_key == written.data_key
        assert loaded.sampler.job_log == written.sampler.job_log
        # The store keeps no digest (as entries written before forests were
        # keyed by it): the cache sets it from the log it was given.
        meta = json.loads(store.backend.get(f"prepared/{written.data_key}/meta.json"))
        assert "error_digest" not in json.dumps(meta)
        assert loaded.error_digest == written.error_digest is not None
        # The synthetic product of the same scenario is a different entry.
        synthetic = reader.get(SCENARIO, TINY)
        assert reader.prepare_calls == 1
        assert synthetic.error_digest is None
        assert PreparedDataCache(spill=store).get(SCENARIO, TINY).error_digest is None


class TestCorruptSpill:
    """A spilled product that fails to load is recomputed, not a traceback."""

    def _corrupt_job_column(self, store, key):
        path = f"prepared/{key}/arrays.npz"
        with np.load(io.BytesIO(store.backend.get(path))) as archive:
            arrays = dict(archive)
        arrays["job_end"][0] = np.nan
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        store.backend.put(path, buffer.getvalue())

    def test_run_over_a_corrupt_entry_matches_a_clean_run(self, store):
        clean = run_experiment(SCENARIO, TINY)
        PreparedDataCache(spill=store).get(SCENARIO, TINY)
        key = prepared_data_key(SCENARIO, TINY)
        self._corrupt_job_column(store, key)

        cache = PreparedDataCache(spill=store)
        with pytest.warns(RuntimeWarning, match=f"{key} is unreadable.*non-finite"):
            recovered = run_experiment(SCENARIO, TINY, cache=cache)
        assert cache.spill_rejects == 1
        assert cache.prepare_calls == 1
        assert cache.spill_saves == 1
        recovered.wallclock_seconds = clean.wallclock_seconds
        assert recovered.to_json() == clean.to_json()

        fresh = PreparedDataCache(spill=store)  # the entry was replaced
        fresh.get(SCENARIO, TINY)
        assert fresh.prepare_calls == 0
        assert fresh.spill_hits == 1

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(("arrays.npz", b"not a zip archive"), id="bad-zip"),
            pytest.param(("meta.json", b"{"), id="bad-json"),
        ],
    )
    def test_unreadable_artifacts_are_rejects(self, store, damage):
        PreparedDataCache(spill=store).get(SCENARIO, TINY)
        key = prepared_data_key(SCENARIO, TINY)
        name, payload = damage
        store.backend.put(f"prepared/{key}/{name}", payload)
        cache = PreparedDataCache(spill=store)
        with pytest.warns(RuntimeWarning, match=key):
            cache.get(SCENARIO, TINY)
        assert (cache.spill_rejects, cache.prepare_calls) == (1, 1)
        assert store.load_prepared(SCENARIO, key) is not None


class TestCorruptResult:
    """A stored result that fails to load is recomputed, not a traceback."""

    def test_truncated_point_is_recomputed(self, store):
        from repro.distributed import results_equivalent
        from repro.evaluation.sweep import SweepSpec, run_sweep

        spec = SweepSpec(base=SCENARIO, mitigation_costs=(2.0, 10.0))
        clean = run_sweep(spec, TINY, cache=PreparedDataCache(), store=store)
        key = store.result_key(spec.points()[1].scenario, TINY)
        path = store.root / "results" / f"{key}.json"
        path.write_bytes(path.read_bytes()[:100])

        with pytest.warns(RuntimeWarning, match=f"stored result {key} is unreadable"):
            rerun = run_sweep(spec, TINY, cache=PreparedDataCache(), store=store)
        assert rerun.extras["points_computed"] == ["cost=10"]
        assert rerun.extras["points_loaded"] == ["cost=2"]
        assert results_equivalent(rerun, clean)
        assert store.load_result_by_key(key) is not None  # written again

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(b"\xff\xfe", id="not-utf8"),
            pytest.param(b'{"kind": "sweep_manifest", "schema": 1}', id="wrong-kind"),
            pytest.param(canonical_json(tag("stored_result", {})).encode(), id="no-result"),
        ],
    )
    def test_unreadable_entries_are_misses(self, store, payload):
        store.backend.put("results/feedfacefeedface.json", payload)
        with pytest.warns(RuntimeWarning, match="feedfacefeedface"):
            assert store.load_result_by_key("feedfacefeedface") is None
        assert store.backend.size("results/feedfacefeedface.json") == 0


class TestExperimentResults:
    @pytest.fixture(scope="class")
    def fresh_result(self):
        return run_experiment(SCENARIO, TINY)

    def test_stored_and_reloaded_result_is_field_identical(self, store, fresh_result):
        """The golden-vs-store guarantee of the serialization schema."""
        store.save_result(SCENARIO, TINY, fresh_result)
        reloaded = store.load_result(SCENARIO, TINY)
        assert reloaded is not None
        assert reloaded.scenario_name == fresh_result.scenario_name
        assert (
            reloaded.mitigation_cost_node_hours
            == fresh_result.mitigation_cost_node_hours
        )
        assert reloaded.splits == fresh_result.splits
        assert reloaded.reduction_report == fresh_result.reduction_report
        assert reloaded.n_test_events == fresh_result.n_test_events
        assert reloaded.wallclock_seconds == fresh_result.wallclock_seconds
        assert reloaded.approach_names == fresh_result.approach_names
        for name in fresh_result.approach_names:
            assert (
                reloaded.approaches[name].per_split
                == fresh_result.approaches[name].per_split
            ), name
        # And therefore every derived quantity agrees exactly.
        assert reloaded.total_costs() == fresh_result.total_costs()
        assert reloaded.confusions() == fresh_result.confusions()
        assert reloaded.to_json() == fresh_result.to_json()

    def test_schedule_knobs_share_a_result_slot(self, store):
        parallel = TINY.with_overrides(n_workers=4, executor_kind="process")
        assert store.result_key(SCENARIO, parallel) == store.result_key(SCENARIO, TINY)

    def test_result_knobs_get_distinct_slots(self, store):
        assert store.result_key(
            SCENARIO, TINY.with_overrides(rl_episodes=6)
        ) != store.result_key(SCENARIO, TINY)
        assert store.result_key(
            SCENARIO.with_mitigation_cost(10.0), TINY
        ) != store.result_key(SCENARIO, TINY)

    def test_miss_returns_none(self, store):
        assert store.load_result(SCENARIO, TINY) is None


class TestChargedResults:
    """A result charged its training cost loads only under the cost model
    that charged it; an uncharged result loads whatever release wrote it."""

    CHARGED = TINY.with_overrides(charge_training_time=True)

    @pytest.fixture(scope="class")
    def charged_result(self):
        return run_experiment(SCENARIO, self.CHARGED)

    @staticmethod
    def _payload(config, result) -> bytes:
        """The bytes releases that charged wall-clock time stored."""
        return canonical_json(
            tag(
                "stored_result",
                {
                    "scenario": SCENARIO.to_dict(),
                    "config": config.to_dict(),
                    "result": result.to_dict(),
                },
            )
        ).encode()

    def test_a_wall_clock_charge_is_recomputed(self, store, charged_result):
        key = store.result_key(SCENARIO, self.CHARGED)
        store.backend.put(
            f"results/{key}.json", self._payload(self.CHARGED, charged_result)
        )
        with pytest.warns(RuntimeWarning, match="charged by wall-clock"):
            assert store.load_result(SCENARIO, self.CHARGED) is None
        store.save_result(SCENARIO, self.CHARGED, charged_result)
        reloaded = store.load_result(SCENARIO, self.CHARGED)
        assert reloaded.to_json() == charged_result.to_json()

    def test_uncharged_results_keep_their_bytes(self, store, charged_result):
        key = store.save_result(SCENARIO, TINY, charged_result)
        older = self._payload(TINY, charged_result)
        assert store.backend.get(f"results/{key}.json") == older
        assert store.load_result(SCENARIO, TINY) is not None


class TestOlderPayloads:
    #: Content keys of (SCENARIO, TINY), recorded before the retired
    #: ``rl_trial_tasks`` / ``compiled`` / ``profile`` config fields were
    #: removed.
    RESULT_KEY = "afe30b0897a0f235"
    PREPARED_KEY = "c04a414ab07b5ebc"

    def _old_config_payload(self):
        payload = TINY.to_dict()
        payload["rl_trial_tasks"] = False
        payload["compiled"] = True
        payload["profile"] = True
        return payload

    def test_retired_config_fields_load_with_unchanged_keys(self, store):
        config = ExperimentConfig.from_dict(self._old_config_payload())
        assert config == TINY
        assert store.result_key(SCENARIO, config) == self.RESULT_KEY
        assert prepared_data_key(SCENARIO, config) == self.PREPARED_KEY

    def test_gc_reads_results_stored_with_retired_fields(self, store):
        payload = tag(
            "stored_result",
            {
                "scenario": SCENARIO.to_dict(),
                "config": self._old_config_payload(),
                "result": {},
            },
        )
        store.backend.put(
            f"results/{self.RESULT_KEY}.json", json.dumps(payload).encode()
        )
        assert store.referenced_prepared_keys() == {self.PREPARED_KEY}


class TestExistenceChecks:
    """``has_prepared`` and the ``save_prepared`` guard never read an artifact."""

    class _CountingBackend(DictBackend):
        def __init__(self):
            super().__init__()
            self.gets = 0

        def get(self, key):
            self.gets += 1
            return super().get(key)

    def test_checks_use_size_not_get(self):
        backend = self._CountingBackend()
        store = ArtifactStore(backend=backend)
        prepared_key = prepared_data_key(SCENARIO, TINY)
        backend.gets = 0

        assert not store.has_prepared(prepared_key)

        backend.put(f"prepared/{prepared_key}/meta.json", b"{}")
        assert store.has_prepared(prepared_key)
        # An already stored product short-circuits before anything is read
        # or written (the stand-in has nothing else to serialize).
        stand_in = SimpleNamespace(scenario=SCENARIO, data_key=prepared_key)
        assert store.save_prepared(stand_in) == prepared_key
        assert backend.gets == 0


class TestInventory:
    def test_listings_cover_all_families(self, store):
        from repro.evaluation.sweep import SweepSpec, run_sweep

        spec = SweepSpec(base=SCENARIO, mitigation_costs=(2.0, 10.0))
        run_sweep(spec, TINY, cache=PreparedDataCache(spill=store), store=store)

        sweeps = store.list_sweeps()
        assert len(sweeps) == 1
        assert sweeps[0]["base_scenario"] == SCENARIO.name
        assert sorted(sweeps[0]["labels"]) == ["cost=10", "cost=2"]

        results = store.list_results()
        assert len(results) == 2
        assert {entry["scenario"] for entry in results} == {SCENARIO.name}

        assert len(store.list_prepared()) == 1

        rebuilt = store.load_sweep_by_key(sweeps[0]["key"])
        assert rebuilt is not None
        assert sorted(rebuilt.labels) == ["cost=10", "cost=2"]

    def test_manifest_with_missing_result_is_reported(self, store):
        from repro.evaluation.sweep import SweepSpec, run_sweep

        spec = SweepSpec(base=SCENARIO, mitigation_costs=(2.0,))
        run_sweep(spec, TINY, cache=PreparedDataCache(), store=store)
        key = store.list_sweeps()[0]["key"]
        result_key = store.list_results()[0]["key"]
        (store.root / "results" / f"{result_key}.json").unlink()
        with pytest.raises(SchemaError, match="missing result"):
            store.load_sweep_by_key(key)

    def test_load_sweep_miss_returns_none(self, store):
        assert store.load_sweep_by_key("0" * 16) is None


class TestAtomicity:
    def test_half_written_result_never_visible(self, store, tmp_path):
        """Readers only ever see complete JSON files (atomic replace)."""
        fresh = run_experiment(SCENARIO, TINY)
        store.save_result(SCENARIO, TINY, fresh)
        path = store.root / "results" / f"{store.result_key(SCENARIO, TINY)}.json"
        json.loads(path.read_text())  # parses completely
        leftovers = list((store.root / "results").glob("*.tmp"))
        assert leftovers == []


class TestGarbageCollection:
    @pytest.fixture()
    def populated(self, store):
        """A store with one result-referenced and one orphaned product."""
        prepared = prepare_data(SCENARIO, TINY)
        store.save_prepared(prepared)
        store.save_result(SCENARIO, TINY, run_experiment(SCENARIO, TINY))
        orphan_scenario = ScenarioConfig.small(seed=4242).with_duration(20 * DAY)
        orphan_key = store.save_prepared(prepare_data(orphan_scenario, TINY))
        return store, prepared.data_key, orphan_key

    def test_referenced_keys_cover_results_and_sweeps(self, populated):
        store, referenced_key, orphan_key = populated
        referenced = store.referenced_prepared_keys()
        assert referenced_key in referenced
        assert orphan_key not in referenced

    def test_dry_run_reports_without_deleting(self, populated):
        store, referenced_key, orphan_key = populated
        report = store.gc(dry_run=True, grace_seconds=0.0)
        assert report.dry_run
        assert report.removed == (orphan_key,)
        assert referenced_key in report.kept
        assert report.freed_bytes > 0
        assert orphan_key in store.list_prepared()  # nothing deleted

    def test_gc_prunes_orphans_and_keeps_referenced(self, populated):
        store, referenced_key, orphan_key = populated
        dry = store.gc(dry_run=True, grace_seconds=0.0)
        report = store.gc(grace_seconds=0.0)
        assert report.removed == (orphan_key,)
        assert report.freed_bytes == dry.freed_bytes
        assert store.list_prepared() == [referenced_key]
        # The referenced product still loads after the pass.
        assert store.load_prepared(SCENARIO, referenced_key) is not None
        # A second pass is a no-op.
        assert store.gc(grace_seconds=0.0).removed == ()

    def test_gc_prunes_incomplete_entries(self, store):
        incomplete = store.root / "prepared" / "deadbeefdeadbeef"
        incomplete.mkdir(parents=True)
        (incomplete / "arrays.npz").write_bytes(b"partial")
        report = store.gc(grace_seconds=0.0)
        assert "deadbeefdeadbeef" in report.removed
        assert not incomplete.exists()

    def test_grace_window_protects_in_flight_products(self, populated):
        """A freshly written (possibly still-spilling) product survives."""
        store, referenced_key, orphan_key = populated
        report = store.gc(grace_seconds=3600.0)
        assert report.removed == ()
        assert orphan_key in report.kept
        assert orphan_key in store.list_prepared()
