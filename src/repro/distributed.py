"""Store-coordinated multi-worker sweeps: claim, heartbeat, reduce.

The paper's evaluation is a grid of scenario points (Figures 3/5/7) and the
points are embarrassingly parallel — nothing couples them but the final
table.  This module scales :func:`~repro.evaluation.sweep.run_sweep` past
one machine with **no cluster dependency**: N workers share nothing but an
:class:`~repro.store.ArtifactStore` (any
:class:`~repro.store.backends.StoreBackend` — a directory on a shared
filesystem today, an object-store bucket tomorrow), and all coordination
rides on the store's content keys plus one atomic primitive
(``put_if_absent``).

One fan-out mode: workers race over *all* missing points through the
lease protocol of :mod:`repro.store.leases`.  A worker atomically claims a
point (``put_if_absent`` on its result key's lease), heartbeats while
computing, publishes the result and releases the lease.  A worker killed
mid-point leaves a lease whose heartbeat goes stale; after the TTL any
worker reclaims it and the point is recomputed.  So the fleet balances its
own load and survives kills, and any number of workers may join or leave.
A point counts as done only when its stored result loads: an unreadable
one is deleted with a warning, then claimed and recomputed like a missing
one.

The invariant: the reduced :class:`~repro.evaluation.sweep.SweepResult` is
**bit-identical** to a single-process ``run_sweep`` of the same spec —
every point's numbers, the modelled training cost included, come from the
same keyed RNG streams and work counts no matter which worker computes it,
and each point lands exactly once in the final result because results live
at content keys: even a duplicated computation (a presumed-dead worker
finishing late) writes the identical bytes to the identical slot.
:func:`results_equivalent` checks the guarantee, comparing everything but
the per-point wall-clock diagnostic.

A typical two-machine session::

    spec = SweepSpec(base=ScenarioConfig.small(), seeds=range(50), ...)
    config = ExperimentConfig.fast()

    # machine A and machine B, same shared store directory:
    run_sweep_worker(spec, config, store)

    # either machine afterwards (the last worker auto-reduces anyway):
    result = reduce_sweep(spec, config, store)
    print(result.table())

or from the command line: ``python -m repro sweep ... --store DIR --claim``
on each machine, then ``--status`` / ``--reduce`` anywhere.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.evaluation.experiment import run_experiment
from repro.evaluation.pipeline import (
    ExperimentConfig,
    ExperimentResult,
    PreparedDataCache,
    prepared_data_key,
)
from repro.evaluation.sweep import SweepResult, SweepSpec
from repro.serialization import canonical_json
from repro.store import ArtifactStore, Lease, LeaseLost, LeaseManager

__all__ = [
    "DEFAULT_POLL_SECONDS",
    "PointStatus",
    "WorkerOutcome",
    "reduce_sweep",
    "results_equivalent",
    "run_sweep_worker",
    "sweep_scientific_json",
    "sweep_status",
]

#: How long a waiting claim worker sleeps between passes over the points
#: when everything left is leased to still-live peers.
DEFAULT_POLL_SECONDS = 0.5


# --------------------------------------------------------------------- #
# Outcome / status containers
# --------------------------------------------------------------------- #
@dataclass
class WorkerOutcome:
    """What one :func:`run_sweep_worker` invocation did."""

    #: This worker's identity (the owner of its leases).
    worker_id: str
    #: Point labels this worker computed and published.
    computed: List[str] = field(default_factory=list)
    #: Point labels whose results the store already held.
    loaded: List[str] = field(default_factory=list)
    #: Point labels still without a result when the worker returned
    #: (only possible with ``wait=False``).
    pending: List[str] = field(default_factory=list)
    #: Claim attempts lost to a live lease held by another worker.
    conflicts: int = 0
    #: Claims that evicted an expired lease first (reclaimed dead work).
    reclaims: int = 0
    #: Heartbeats sent while computing.
    heartbeats: int = 0
    #: Whether this worker observed the sweep complete and recorded (or
    #: refreshed) the manifest.
    reduced: bool = False
    #: The reduced sweep, when ``reduced`` (and reducing was requested).
    result: Optional[SweepResult] = None
    wallclock_seconds: float = 0.0
    #: The summed ``extras["profile"]`` of the points this worker computed
    #: (see :func:`~repro.evaluation.sweep.run_sweep`); ``None`` if none.
    profile: Optional[Dict[str, Any]] = None

    def summary(self) -> str:
        """One status line per worker, for logs and the CLI."""
        parts = [
            f"worker {self.worker_id}:",
            f"{len(self.computed)} computed,",
            f"{len(self.loaded)} loaded,",
            f"{len(self.pending)} pending,",
            f"{self.conflicts} conflicts,",
            f"{self.reclaims} reclaimed",
        ]
        if self.reduced:
            parts.append("(reduced)")
        return " ".join(parts)


@dataclass(frozen=True)
class PointStatus:
    """Per-point progress of a distributed sweep (``repro sweep --status``)."""

    label: str
    #: ``"done"`` (result stored), ``"leased"`` (a worker is computing it)
    #: or ``"pending"`` (unclaimed and uncomputed).
    state: str
    result_key: str
    #: Lease owner when ``state == "leased"``.
    owner: str = ""
    #: Seconds since the owner's last heartbeat (leased points only).
    heartbeat_age: Optional[float] = None
    #: Whether the lease has outlived its TTL (reclaimable dead work).
    expired: bool = False

    def describe(self) -> str:
        if self.state == "leased":
            flag = " EXPIRED" if self.expired else ""
            return (
                f"{self.label}: leased by {self.owner} "
                f"(heartbeat {self.heartbeat_age:.1f}s ago{flag})"
            )
        return f"{self.label}: {self.state}"


# --------------------------------------------------------------------- #
# Heartbeats
# --------------------------------------------------------------------- #
class _HeartbeatPump:
    """Background thread renewing the worker's active lease.

    ``beat()`` failures are tolerated: losing a lease (another worker
    presumed us dead and reclaimed the point) must not kill the
    computation — the result write is idempotent — it only stops further
    heartbeats on that lease.
    """

    def __init__(self, manager: LeaseManager, interval: float) -> None:
        self.manager = manager
        self.interval = interval
        self.beats = 0
        self.lost = 0
        self._lease: Optional[Lease] = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_HeartbeatPump":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=max(1.0, 2 * self.interval))

    def watch(self, lease: Optional[Lease]) -> None:
        with self._lock:
            self._lease = lease

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            with self._lock:
                lease = self._lease
            if lease is None:
                continue
            try:
                renewed = self.manager.renew(lease)
            except LeaseLost:
                self.lost += 1
                self.watch(None)
            except Exception:
                # A transient backend hiccup: skip this beat, try again.
                continue
            else:
                self.beats += 1
                self.watch(renewed)


# --------------------------------------------------------------------- #
# The worker
# --------------------------------------------------------------------- #
def _point_jobs(
    spec: SweepSpec, config: ExperimentConfig, store: ArtifactStore
) -> List[Tuple[Any, str, str]]:
    """Every point with its result and prepared-data content keys."""
    return [
        (
            point,
            store.result_key(point.scenario, config),
            prepared_data_key(point.scenario, config),
        )
        for point in spec.points()
    ]


def _stored(store: ArtifactStore, result_key: str) -> bool:
    """Whether the point's result is stored and loads.

    An unreadable entry is warned about and deleted by the load, so the
    point is claimed and recomputed like a missing one.
    """
    return store.load_result_by_key(result_key) is not None


def _add_profile(total: Optional[Dict], profile: Dict) -> Dict:
    """``total`` plus one point's profile: counts, spans and task tables."""
    total = total or {"counts": {}, "spans": {}, "tasks": {}}
    for name, n in profile["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + n
    tables = [(total["spans"], profile["spans"])] + [
        (total["tasks"].setdefault(body, {}), per_pid)
        for body, per_pid in profile["tasks"].items()
    ]
    for into, timings in tables:
        for name, (calls, seconds) in timings.items():
            old_calls, old_seconds = into.get(name, (0, 0.0))
            into[name] = (old_calls + calls, old_seconds + seconds)
    return total


def run_sweep_worker(
    spec: SweepSpec,
    config: Optional[ExperimentConfig] = None,
    store: Optional[ArtifactStore] = None,
    *,
    worker_id: Optional[str] = None,
    lease_ttl: Optional[float] = None,
    heartbeat_interval: Optional[float] = None,
    wait: bool = True,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    cache: Optional[PreparedDataCache] = None,
    reduce: bool = True,
    compute_fn: Optional[Callable[..., ExperimentResult]] = None,
) -> WorkerOutcome:
    """Run one claim worker of a distributed sweep against a shared store.

    The worker loops claim → heartbeat → compute → publish → release over
    every point without a stored result.  Completed points are skipped;
    every computed point's result is written through; and whichever
    worker observes the last point land assembles the sweep manifest
    (``reduce=False`` suppresses that, for an explicit reducer step).

    The worker heartbeats its active lease every ``heartbeat_interval``
    seconds (default: ``lease_ttl / 4``) from a background thread, and —
    with ``wait`` (the default) — keeps polling until *every* point has a
    result, reclaiming leases whose owners die along the way, so a fleet
    of workers finishes the sweep even when some of them are killed.
    ``wait=False`` returns after one pass, leaving still-leased points to
    their owners.

    ``compute_fn(scenario, config, cache)`` substitutes the per-point
    computation — a test hook for exercising the coordination protocol
    without training anything.  The default,
    :func:`~repro.evaluation.experiment.run_experiment`, is the one-point
    :func:`~repro.evaluation.sweep.run_sweep` of the claimed point, so a
    claimed point runs the same execution body as every other entry point.

    Returns a :class:`WorkerOutcome`; the claim metrics in it are what the
    exactly-once tests assert (summed over workers: ``computed`` counts
    partition the points, every conflict names a point someone else won).
    """
    if store is None:
        raise ValueError("run_sweep_worker needs a shared ArtifactStore")
    config = config or ExperimentConfig()
    cache = cache if cache is not None else PreparedDataCache(spill=store)
    compute = compute_fn or (
        lambda scenario, cfg, shared_cache: run_experiment(
            scenario, cfg, cache=shared_cache
        )
    )
    started = time.perf_counter()
    manager = store.lease_manager(owner=worker_id, ttl_seconds=lease_ttl)
    interval = (
        heartbeat_interval
        if heartbeat_interval is not None
        else manager.ttl_seconds / 4.0
    )
    outcome = WorkerOutcome(worker_id=manager.owner)
    jobs = _point_jobs(spec, config, store)
    done: set = set()

    with _HeartbeatPump(manager, interval) as pump:
        while True:
            for point, result_key, prepared_key in jobs:
                if result_key in done:
                    continue
                if _stored(store, result_key):
                    done.add(result_key)
                    outcome.loaded.append(point.label)
                    continue
                lease = manager.claim(
                    result_key, label=point.label, prepared_key=prepared_key
                )
                if lease is None:
                    continue  # live lease elsewhere; revisit next pass
                if _stored(store, result_key):
                    # A peer published (and released) since the check above.
                    manager.release(lease)
                    done.add(result_key)
                    outcome.loaded.append(point.label)
                    continue
                pump.watch(lease)
                try:
                    result = compute(point.scenario, config, cache)
                    store.save_result(point.scenario, config, result)
                finally:
                    pump.watch(None)
                    manager.release(lease)
                done.add(result_key)
                outcome.computed.append(point.label)
                if "profile" in result.extras:
                    outcome.profile = _add_profile(
                        outcome.profile, result.extras["profile"]
                    )
            # Leased-elsewhere points whose results landed since our pass
            # count as loaded right here; only truly unfinished ones block.
            blocked: List[str] = []
            for point, result_key, _prepared in jobs:
                if result_key in done:
                    continue
                if _stored(store, result_key):
                    done.add(result_key)
                    outcome.loaded.append(point.label)
                else:
                    blocked.append(point.label)
            if not blocked:
                break
            if not wait:
                outcome.pending = blocked
                break
            time.sleep(poll_seconds)

    outcome.conflicts = manager.conflicts
    outcome.reclaims = manager.reclaims
    outcome.heartbeats = pump.beats
    if reduce and not outcome.pending:
        outcome.result = reduce_sweep(spec, config, store)
        outcome.reduced = outcome.result is not None
    outcome.wallclock_seconds = time.perf_counter() - started
    return outcome


# --------------------------------------------------------------------- #
# Reduce and status
# --------------------------------------------------------------------- #
def reduce_sweep(
    spec: SweepSpec,
    config: Optional[ExperimentConfig] = None,
    store: Optional[ArtifactStore] = None,
) -> Optional[SweepResult]:
    """Assemble the :class:`SweepResult` from the workers' stored points.

    Returns ``None`` while any point's result is still missing.  On
    success the sweep manifest is recorded (idempotently — racing reducers
    write identical bytes), after which ``python -m repro report`` and
    :meth:`ArtifactStore.load_sweep_by_key` see the finished sweep.
    """
    if store is None:
        raise ValueError("reduce_sweep needs the shared ArtifactStore")
    config = config or ExperimentConfig()
    points = spec.points()
    results: Dict[str, ExperimentResult] = {}
    for point in points:
        result = store.load_result(point.scenario, config)
        if result is None:
            return None
        results[point.label] = result
    reduced = SweepResult(
        spec=spec,
        points=points,
        results=results,
        wallclock_seconds=0.0,
        extras={
            "points_loaded": [point.label for point in points],
            "points_computed": [],
        },
    )
    store.save_sweep(spec, config, reduced)
    return reduced


def sweep_status(
    spec: SweepSpec,
    config: Optional[ExperimentConfig] = None,
    store: Optional[ArtifactStore] = None,
) -> List[PointStatus]:
    """Per-point progress: done / leased-by-whom / pending.

    The store is the single source of truth, so this is safe to call from
    anywhere — a worker, the reducer, or an operator's shell — while the
    sweep runs.
    """
    if store is None:
        raise ValueError("sweep_status needs the shared ArtifactStore")
    config = config or ExperimentConfig()
    manager = store.lease_manager()
    statuses: List[PointStatus] = []
    for point, result_key, _prepared in _point_jobs(spec, config, store):
        if _stored(store, result_key):
            statuses.append(
                PointStatus(label=point.label, state="done", result_key=result_key)
            )
            continue
        lease = manager.load(result_key)
        if lease is not None:
            statuses.append(
                PointStatus(
                    label=point.label,
                    state="leased",
                    result_key=result_key,
                    owner=lease.owner,
                    heartbeat_age=lease.age(),
                    expired=lease.expired(),
                )
            )
        else:
            statuses.append(
                PointStatus(
                    label=point.label, state="pending", result_key=result_key
                )
            )
    return statuses


# --------------------------------------------------------------------- #
# Equivalence
# --------------------------------------------------------------------- #
def sweep_scientific_json(result: SweepResult) -> str:
    """Canonical JSON of a sweep's *scientific* payload.

    Identical to :meth:`SweepResult.to_json` except that each point's
    ``wallclock_seconds`` — a diagnostic of whichever process happened to
    compute the point, never an input to any number — is zeroed, so two
    runs of the same sweep (single-process and N-worker) compare
    byte-for-byte equal.
    """
    payload = result.to_dict()
    for point_payload in payload["results"].values():
        point_payload["wallclock_seconds"] = 0.0
    return canonical_json(payload)


def results_equivalent(a: SweepResult, b: SweepResult) -> bool:
    """Whether two sweeps carry bit-identical scientific results."""
    return sweep_scientific_json(a) == sweep_scientific_json(b)
