"""Content-keyed artifact store over a pluggable :class:`StoreBackend`.

The :class:`ArtifactStore` persists the artifact families of the
evaluation pipeline under one backend namespace, each addressed by a
SHA-256 content key derived from the *inputs* that produced it — never by
run order or timestamps — so identical work is found again across
processes, sessions and machines:

``prepared/<key>/``
    One :class:`~repro.evaluation.pipeline.PreparedData` product (the
    Table 1 feature tracks, the scaled job log and the reduction report) as
    ``meta.json`` + ``arrays.npz``, filed under its ``data_key``
    (:func:`~repro.evaluation.pipeline.prepared_data_key`, which digests
    ingested logs by content), so everything the in-memory
    :class:`~repro.evaluation.pipeline.PreparedDataCache` would share, the
    store shares too — attach a store as the cache's ``spill`` backend and
    sweeps warm-start across sessions.  Products of ingested logs are
    referenced by no stored result (those results bypass the store), so
    :meth:`ArtifactStore.gc` prunes them once past its grace window.
``results/<key>.json``
    One :class:`~repro.evaluation.pipeline.ExperimentResult`, keyed by the
    full (scenario, experiment-config) pair *minus* the scheduling knobs
    (``n_workers``, ``executor_kind``) — the golden harness proves the
    schedule never changes the numbers, so serial and parallel runs of one
    experiment share a result slot.  A charged result records its
    training-cost model; one charged by another model (or by wall-clock,
    as older releases did) is recomputed.
``sweeps/<key>.json``
    One sweep manifest mapping each point label of a
    :class:`~repro.evaluation.sweep.SweepSpec` to its result key, so
    ``python -m repro report`` can rebuild the whole
    :class:`~repro.evaluation.sweep.SweepResult` from disk.
``leases/<result_key>.json``
    The distributed-sweep claim protocol (see :mod:`repro.store.leases`):
    which worker is computing which point, heartbeat-stamped.

All JSON artifacts use the versioned schema of :mod:`repro.serialization`;
writes go through the backend's atomic ``put`` so a crashed run never
leaves a half-written artifact behind; a result that is unreadable
anyway (say, truncated by a partial copy) is warned about, deleted and
recomputed.  The default
:class:`~repro.store.backends.LocalFSBackend` keeps the exact directory
layout this store has always written; any backend honouring the
:class:`~repro.store.backends.StoreBackend` contract (e.g. an object
store, or the in-memory :class:`~repro.store.backends.DictBackend`) drops
in without touching the store logic.
"""

from __future__ import annotations

import io
import json
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import ScenarioConfig
from repro.core.features import NodeFeatureTrack
from repro.evaluation.costs import TRAINING_COST_MODEL
from repro.evaluation.pipeline import (
    ExperimentConfig,
    ExperimentResult,
    PreparedData,
    prepared_data_key,
)
from repro.serialization import (
    SchemaError,
    canonical_json_bytes,
    content_key,
    tag,
    untag,
)
from repro.store.backends import LocalFSBackend, StoreBackend
from repro.store.leases import Lease, LeaseManager
from repro.telemetry.reduction import ReductionReport
from repro.utils.rng import RngFactory
from repro.utils.validation import Rule
from repro.workload.job import JobLog
from repro.workload.sampling import JobSequenceSampler

__all__ = ["ArtifactStore", "StoreGcReport"]


@dataclass(frozen=True)
class StoreGcReport:
    """Outcome of one :meth:`ArtifactStore.gc` pass."""

    #: Keys of the pruned (or, with ``dry_run``, prunable) prepared products.
    removed: Tuple[str, ...]
    #: Keys kept: referenced by a sweep manifest, a stored result or an
    #: *active* lease, or written recently enough to fall inside the
    #: in-flight grace window.
    kept: Tuple[str, ...]
    #: Bytes freed (or freeable) by removing the orphaned products.
    freed_bytes: int
    #: Whether this was a report-only pass.
    dry_run: bool
    #: Result keys of leases pruned (or prunable) because their heartbeat
    #: exceeded the TTL — a worker died mid-point and nobody reclaimed it.
    expired_leases: Tuple[str, ...] = ()
    #: Result keys of leases left untouched: their owners are still
    #: heartbeating, and their prepared products are pinned.
    active_leases: Tuple[str, ...] = ()

#: Experiment-config fields that select a *schedule*, not a result: two
#: runs differing only here produce identical numbers (golden-tested), so
#: they must share one result slot.
_SCHEDULE_FIELDS = ("n_workers", "executor_kind")


def _redacted_config_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """Config payload with the result-irrelevant scheduling knobs dropped."""
    payload = config.to_dict()
    for name in _SCHEDULE_FIELDS:
        payload.pop(name, None)
    return payload


def _parse_stored_result(payload: Dict[str, Any]) -> ExperimentResult:
    model = payload.get("training_cost_model")
    if payload["config"]["charge_training_time"] and model != TRAINING_COST_MODEL:
        charged_by = model or "wall-clock"
        raise SchemaError(f"charged by {charged_by}, not {TRAINING_COST_MODEL}")
    return ExperimentResult.from_dict(payload["result"])


class ArtifactStore:
    """Content-keyed store of prepared data, results, sweeps and leases.

    ``ArtifactStore(path)`` opens (or creates) the classic on-disk layout
    through a :class:`~repro.store.backends.LocalFSBackend`;
    ``ArtifactStore(backend=...)`` mounts the same artifact families on any
    :class:`~repro.store.backends.StoreBackend`.  Creating the store lays
    down (or validates) a ``store.json`` marker so an arbitrary namespace
    is never silently treated as a store.  All operations are safe to
    interleave across processes sharing the backend: artifacts are
    immutable once written and writes are atomic, so the worst concurrent
    outcome is two processes computing the same artifact once each.
    """

    MARKER = "store.json"
    #: :meth:`gc`'s grace window is a finite number >= 0: a negative or NaN
    #: window protects no in-flight spill.
    GC_GRACE_RULE = Rule(float, low=0)

    def __init__(self, root=None, *, backend: Optional[StoreBackend] = None) -> None:
        if (root is None) == (backend is None):
            raise ValueError(
                "ArtifactStore takes a root directory (LocalFSBackend) or "
                "an explicit backend=, not both and not neither"
            )
        self.backend: StoreBackend = (
            LocalFSBackend(root) if backend is None else backend
        )
        #: Filesystem root when the backend has one (``None`` otherwise);
        #: kept for path-flavoured display (the CLI prints it).
        self.root: Optional[Path] = getattr(self.backend, "root", None)
        marker = self.backend.get(self.MARKER)
        if marker is not None:
            untag(json.loads(marker.decode("utf-8")), "artifact_store")
        else:
            # put_if_absent: two processes opening a fresh store race to
            # one marker instead of overwriting each other.
            self.backend.put_if_absent(
                self.MARKER, canonical_json_bytes(tag("artifact_store", {}))
            )
        for family in ("prepared", "results", "sweeps", "leases"):
            self.backend.ensure_prefix(family)

    def __repr__(self) -> str:
        if self.root is not None:
            return f"ArtifactStore({str(self.root)!r})"
        return f"ArtifactStore(backend={self.backend!r})"

    # ------------------------------------------------------------------ #
    # Backend text/JSON helpers
    # ------------------------------------------------------------------ #
    def _get_json(self, key: str, kind: str) -> Optional[Dict[str, Any]]:
        data = self.backend.get(key)
        if data is None:
            return None
        return untag(json.loads(data.decode("utf-8")), kind)

    def _read_json(self, family: str, key: str, kind: str, parse, *, delete=False):
        """``parse(payload)`` of the entry ``<family>s/<key>.json``, guarded.

        A miss is ``None``.  So is an unreadable entry (a truncated or
        foreign file), with one ``RuntimeWarning`` naming its key; with
        ``delete`` the entry is also removed, so its work is redone.
        """
        path = f"{family}s/{key}.json"
        try:
            payload = self._get_json(path, kind)
            return None if payload is None else parse(payload)
        except (ValueError, KeyError) as error:  # SchemaError is a ValueError
            action = (
                "deleting it so its point is recomputed" if delete else "skipping it"
            )
            warnings.warn(
                f"stored {family} {key} is unreadable ({error}); {action}",
                RuntimeWarning,
                stacklevel=3,
            )
            if delete:
                self.backend.delete(path)
            return None

    def _put_json(self, key: str, payload: Dict[str, Any]) -> None:
        self.backend.put(key, canonical_json_bytes(payload))

    # ------------------------------------------------------------------ #
    # Content keys
    # ------------------------------------------------------------------ #
    def result_key(self, scenario: ScenarioConfig, config: ExperimentConfig) -> str:
        """Content key of one experiment's result."""
        return content_key(
            {
                "kind": "experiment_result",
                "scenario": scenario.to_dict(),
                "config": _redacted_config_dict(config),
            }
        )

    def sweep_key(self, spec, config: ExperimentConfig) -> str:
        """Content key of one sweep manifest (``spec`` is a ``SweepSpec``)."""
        return content_key(
            {
                "kind": "sweep",
                "spec": spec.to_dict(),
                "config": _redacted_config_dict(config),
            }
        )

    # ------------------------------------------------------------------ #
    # Prepared data
    # ------------------------------------------------------------------ #
    def has_prepared(self, key: str) -> bool:
        """Whether a complete product is stored under ``key``, unread.

        Artifacts are never empty (the backend writes them atomically), so
        a positive size of the ``meta.json`` marker is presence.
        """
        return self.backend.size(f"prepared/{key}/meta.json") > 0

    def save_prepared(self, prepared: PreparedData) -> str:
        """Persist one :class:`PreparedData` product under its ``data_key``.

        Returns the key.  An entry already stored under it is kept as it is.
        """
        scenario = prepared.scenario
        key = prepared.data_key
        if self.has_prepared(key):
            return key

        arrays: Dict[str, np.ndarray] = {}
        nodes = sorted(prepared.tracks)
        arrays["nodes"] = np.asarray(nodes, dtype=np.int64)
        for node in nodes:
            track = prepared.tracks[node]
            arrays[f"track_{node}_times"] = track.times
            arrays[f"track_{node}_features"] = track.features
            arrays[f"track_{node}_is_ue"] = track.is_ue
        job_log = prepared.sampler.job_log
        arrays["job_id"] = job_log.job_id
        arrays["job_submit"] = job_log.submit
        arrays["job_start"] = job_log.start
        arrays["job_end"] = job_log.end
        arrays["job_n_nodes"] = job_log.n_nodes
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        self.backend.put(f"prepared/{key}/arrays.npz", buffer.getvalue())

        meta = tag(
            "prepared_data",
            {
                "scenario": scenario.to_dict(),
                "reduction_report": prepared.reduction_report.to_dict(),
            },
        )
        # meta.json is written last: its presence marks the entry complete.
        self._put_json(f"prepared/{key}/meta.json", meta)
        return key

    def load_prepared(
        self, scenario: ScenarioConfig, key: str
    ) -> Optional[PreparedData]:
        """Reload the product stored under ``key``, bound to ``scenario``.

        Returns ``None`` on a miss.  The product is bound to the *caller's*
        ``scenario`` (evaluation parameters such as the mitigation cost are
        excluded from the content key, exactly as in the in-memory cache)
        and carries ``key`` as its ``data_key``.  A corrupt entry raises
        (``ValueError``, ``KeyError`` or ``zipfile.BadZipFile``).
        """
        meta = self._get_json(f"prepared/{key}/meta.json", "prepared_data")
        if meta is None:
            return None
        reduction_report = ReductionReport.from_dict(meta["reduction_report"])

        raw = self.backend.get(f"prepared/{key}/arrays.npz")
        if raw is None:
            return None  # incomplete entry: a crashed writer beat the marker
        with np.load(io.BytesIO(raw)) as archive:
            nodes = [int(node) for node in archive["nodes"]]
            tracks = {
                node: NodeFeatureTrack(
                    node=node,
                    times=archive[f"track_{node}_times"],
                    features=archive[f"track_{node}_features"],
                    is_ue=archive[f"track_{node}_is_ue"],
                )
                for node in nodes
            }
            job_log = JobLog(
                job_id=archive["job_id"],
                submit=archive["job_submit"],
                start=archive["job_start"],
                end=archive["job_end"],
                n_nodes=archive["job_n_nodes"],
            )
        # Same seed derivation as prepare_data; the pipeline never draws from
        # the sampler's internal generator, but keep it identical anyway.
        sampler = JobSequenceSampler(
            job_log, seed=RngFactory(scenario.seed).stream("sampler")
        )
        return PreparedData(
            scenario=scenario,
            tracks=tracks,
            sampler=sampler,
            reduction_report=reduction_report,
            data_key=key,
        )

    def delete_prepared(self, key: str) -> None:
        """Remove the product stored under ``key`` (marker first)."""
        self.backend.delete(f"prepared/{key}/meta.json")
        self.backend.delete(f"prepared/{key}/arrays.npz")

    # ------------------------------------------------------------------ #
    # Experiment results
    # ------------------------------------------------------------------ #
    def save_result(
        self,
        scenario: ScenarioConfig,
        config: ExperimentConfig,
        result: ExperimentResult,
    ) -> str:
        """Persist one experiment result with its full provenance; returns its key."""
        key = self.result_key(scenario, config)
        payload = {
            "scenario": scenario.to_dict(),
            "config": config.to_dict(),
            "result": result.to_dict(),
        }
        if config.charge_training_time:
            payload["training_cost_model"] = TRAINING_COST_MODEL
        self._put_json(f"results/{key}.json", tag("stored_result", payload))
        return key

    def load_result(
        self, scenario: ScenarioConfig, config: ExperimentConfig
    ) -> Optional[ExperimentResult]:
        """Reload one experiment result, or ``None`` on a miss."""
        return self.load_result_by_key(self.result_key(scenario, config))

    def load_result_by_key(self, key: str) -> Optional[ExperimentResult]:
        """Reload the result stored under ``key``, or ``None`` on a miss.

        An unreadable entry (a truncated or foreign file), or one whose
        training cost another cost model charged, is warned about, deleted
        and reported as a miss, so the point is recomputed.
        """
        return self._read_json(
            "result", key, "stored_result", _parse_stored_result, delete=True
        )

    # ------------------------------------------------------------------ #
    # Sweep manifests
    # ------------------------------------------------------------------ #
    def save_sweep(self, spec, config: ExperimentConfig, result) -> str:
        """Persist a sweep manifest (``result`` is a ``SweepResult``).

        Point results must already be stored (``run_sweep`` writes each one
        before recording the manifest); the manifest only records the spec,
        the config and the label -> result-key mapping.
        """
        key = self.sweep_key(spec, config)
        payload = tag(
            "sweep_manifest",
            {
                "spec": spec.to_dict(),
                "config": config.to_dict(),
                "points": {
                    point.label: self.result_key(point.scenario, config)
                    for point in result.points
                },
            },
        )
        self._put_json(f"sweeps/{key}.json", payload)
        return key

    def load_sweep_manifest(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw manifest payload of one stored sweep, or ``None``."""
        return self._get_json(f"sweeps/{key}.json", "sweep_manifest")

    def load_sweep_by_key(self, key: str):
        """Rebuild a :class:`~repro.evaluation.sweep.SweepResult` from disk.

        Raises :class:`repro.serialization.SchemaError` when a point result
        referenced by the manifest is missing or unreadable (resume the
        sweep to recompute it).
        """
        from repro.evaluation.sweep import SweepResult, SweepSpec

        manifest = self.load_sweep_manifest(key)
        if manifest is None:
            return None
        spec = SweepSpec.from_dict(manifest["spec"])
        results: Dict[str, ExperimentResult] = {}
        for label, result_key in manifest["points"].items():
            result = self.load_result_by_key(result_key)
            if result is None:
                raise SchemaError(
                    f"sweep {key} references missing result {result_key} "
                    f"for point {label!r}; resume the sweep to recompute it"
                )
            results[label] = result
        return SweepResult(
            spec=spec,
            points=spec.points(),
            results=results,
            wallclock_seconds=0.0,
        )

    # ------------------------------------------------------------------ #
    # Leases
    # ------------------------------------------------------------------ #
    def lease_manager(
        self,
        owner: Optional[str] = None,
        ttl_seconds: Optional[float] = None,
    ) -> LeaseManager:
        """A :class:`~repro.store.leases.LeaseManager` over this backend."""
        kwargs: Dict[str, Any] = {}
        if ttl_seconds is not None:
            kwargs["ttl_seconds"] = ttl_seconds
        return LeaseManager(self.backend, owner=owner, **kwargs)

    def list_leases(self) -> List[Lease]:
        """Every lease currently recorded in the store."""
        return self.lease_manager().list_leases()

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #
    def _entries(self, family: str, kind: str, parse):
        """``(key, parse(payload))`` of every readable ``<family>s/`` entry.

        Unreadable entries are skipped with a warning (see
        :meth:`_read_json`), never deleted: listing is read-only.
        """
        prefix = f"{family}s/"
        for path in self.backend.list(prefix):
            key = path[len(prefix):-len(".json")]
            value = self._read_json(family, key, kind, parse)
            if value is not None:
                yield key, value

    def list_sweeps(self) -> List[Dict[str, Any]]:
        """Summaries of every stored sweep (key, base scenario, point labels)."""

        def summary(manifest):
            base = untag(manifest["spec"], "sweep_spec")["base"]
            return {
                "base_scenario": untag(base, "scenario_config")["name"],
                "labels": list(manifest["points"]),
            }

        return [
            {"key": key, **entry}
            for key, entry in self._entries("sweep", "sweep_manifest", summary)
        ]

    def list_results(self) -> List[Dict[str, Any]]:
        """Summaries of every stored experiment result."""

        def summary(payload):
            scenario = untag(payload["scenario"], "scenario_config")
            result = untag(payload["result"], "experiment_result")
            return {
                "scenario": scenario["name"],
                "seed": scenario["seed"],
                "mitigation_cost_node_minutes": scenario["evaluation"].get(
                    "mitigation_cost_node_minutes"
                ),
                "approaches": list(result["approaches"]),
            }

        return [
            {"key": key, **entry}
            for key, entry in self._entries("result", "stored_result", summary)
        ]

    def list_prepared(self) -> List[str]:
        """Content keys of every stored prepared-data product."""
        return sorted(
            key[len("prepared/"):-len("/meta.json")]
            for key in self.backend.list("prepared/")
            if key.endswith("/meta.json")
        )

    # ------------------------------------------------------------------ #
    # Garbage collection
    # ------------------------------------------------------------------ #
    def referenced_prepared_keys(self) -> set:
        """Prepared-product keys reachable from the stored sweeps/results.

        A sweep manifest references the prepared product of each of its
        points; a stored experiment result references the product of its
        (scenario, config) pair.  Everything else in ``prepared/`` is
        orphaned — typically spilled by sweeps whose manifests were never
        written (killed runs) or superseded by later specs — and may be
        pruned by :meth:`gc`.
        """
        from repro.evaluation.sweep import SweepSpec

        def sweep_keys(manifest):
            spec = SweepSpec.from_dict(manifest["spec"])
            config = ExperimentConfig.from_dict(manifest["config"])
            return {prepared_data_key(p.scenario, config) for p in spec.points()}

        def result_keys(payload):
            scenario = ScenarioConfig.from_dict(payload["scenario"])
            config = ExperimentConfig.from_dict(payload["config"])
            return {prepared_data_key(scenario, config)}

        referenced = set()
        for _key, keys in self._entries("sweep", "sweep_manifest", sweep_keys):
            referenced |= keys
        for _key, keys in self._entries("result", "stored_result", result_keys):
            referenced |= keys
        return referenced

    def _prepared_entries(self) -> Dict[str, List[str]]:
        """Prepared content key -> every backend key of that entry."""
        entries: Dict[str, List[str]] = {}
        for key in self.backend.list("prepared/"):
            parts = key.split("/")
            if len(parts) < 3:
                continue
            entries.setdefault(parts[1], []).append(key)
        return entries

    def gc(
        self, dry_run: bool = False, grace_seconds: float = 3600.0
    ) -> "StoreGcReport":
        """Prune unreferenced prepared products and expired leases.

        Prepared products survive when a stored sweep or result references
        them — or when an **active** lease does: a worker is computing that
        point right now, and collecting its inputs out from under it would
        waste the work.  Incomplete entries (a crashed writer left no
        ``meta.json``) are pruned; entries modified within
        ``grace_seconds`` are always kept (a sweep *currently* spilling
        products must not be raced by a concurrent gc pass).

        Leases whose heartbeat exceeds their TTL are the debris of killed
        workers nobody reclaimed; they are deleted and reported in
        :attr:`StoreGcReport.expired_leases`.  With ``dry_run`` nothing is
        deleted; the report still lists what would go and how many bytes it
        would free.
        """
        self.GC_GRACE_RULE("grace_seconds", grace_seconds)
        referenced = self.referenced_prepared_keys()
        active_leases: List[str] = []
        expired_leases: List[str] = []
        for lease in self.list_leases():
            if lease.expired():
                expired_leases.append(lease.result_key)
                if not dry_run:
                    self.backend.delete(lease.key)
            else:
                active_leases.append(lease.result_key)
                if lease.prepared_key:
                    referenced.add(lease.prepared_key)

        now = time.time()
        removed: List[str] = []
        kept: List[str] = []
        freed = 0
        for name, keys in sorted(self._prepared_entries().items()):
            complete = f"prepared/{name}/meta.json" in keys
            if complete and name in referenced:
                kept.append(name)
                continue
            newest = max(self.backend.mtime(key) for key in keys)
            if now - newest < grace_seconds:
                kept.append(name)
                continue
            freed += sum(self.backend.size(key) for key in keys)
            removed.append(name)
            if not dry_run:
                for key in keys:
                    self.backend.delete(key)
        return StoreGcReport(
            removed=tuple(removed),
            kept=tuple(kept),
            freed_bytes=freed,
            dry_run=dry_run,
            expired_leases=tuple(expired_leases),
            active_leases=tuple(active_leases),
        )
