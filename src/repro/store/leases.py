"""The ``leases/`` store family: the claim protocol of distributed sweeps.

A *lease* is a small JSON object at ``leases/<result_key>.json`` asserting
"worker *owner* is computing the point whose result will land at
``results/<result_key>.json``".  The whole multi-worker coordination story
reduces to three backend primitives:

claim
    ``put_if_absent`` on the lease key — atomic, exactly one winner among
    any number of concurrent claimants.  A point whose *result* already
    exists is never claimed (the resume path catches it first).
heartbeat
    The owner periodically rewrites its lease with a fresh timestamp.  A
    lease whose heartbeat is older than its TTL is *expired*: its owner is
    presumed dead and any worker may reclaim the point (delete + claim —
    the delete may race another reclaimer, but the follow-up
    ``put_if_absent`` still admits exactly one winner).
release
    The owner deletes its lease after publishing the result.

Results themselves are content-keyed and deterministic, so the one benign
race left — a presumed-dead owner that was merely slow finishing its
point — ends with two byte-identical result writes to the same key: points
are never lost and never double-counted, even when work is duplicated.
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.serialization import canonical_json_bytes, tag, untag
from repro.store.backends import StoreBackend
from repro.utils.validation import Rule

__all__ = [
    "DEFAULT_LEASE_TTL",
    "Lease",
    "LeaseLost",
    "LeaseManager",
    "default_worker_id",
]

#: Default time-to-live of an unrefreshed lease, in seconds.  Workers
#: heartbeat every ``ttl / 4`` by default, so four missed beats kill a
#: lease — tolerant of scheduling hiccups, quick enough that a crashed
#: worker's points are reclaimed within a couple of minutes.
DEFAULT_LEASE_TTL = 120.0

LEASE_PREFIX = "leases/"


class LeaseLost(RuntimeError):
    """The lease was reclaimed by another worker (or vanished) mid-compute."""


def default_worker_id() -> str:
    """``host:pid:nonce`` — unique even across forks sharing a pid space."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one sweep point."""

    #: Content key of the result the owner is computing (``results/<key>``).
    result_key: str
    #: Claimant identity (:func:`default_worker_id` unless overridden).
    owner: str
    #: Human-readable sweep-point label, for ``--status`` output.
    label: str
    #: When the point was claimed (epoch seconds).
    claimed_at: float
    #: Last heartbeat (epoch seconds); staleness beyond ``ttl_seconds``
    #: expires the lease.
    heartbeat: float
    #: How stale the heartbeat may grow before any worker may reclaim.
    ttl_seconds: float
    #: Content key of the point's prepared-data product, so gc can keep the
    #: product of an in-flight point alive (empty when unknown).
    prepared_key: str = ""

    @property
    def key(self) -> str:
        """The backend key this lease lives at."""
        return f"{LEASE_PREFIX}{self.result_key}.json"

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since the last heartbeat."""
        return (time.time() if now is None else now) - self.heartbeat

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the owner has missed enough heartbeats to be presumed dead."""
        return self.age(now) > self.ttl_seconds

    def to_dict(self) -> Dict[str, Any]:
        """Versioned JSON-ready representation (see :mod:`repro.serialization`)."""
        return tag(
            "lease",
            {
                "result_key": self.result_key,
                "owner": self.owner,
                "label": self.label,
                "claimed_at": self.claimed_at,
                "heartbeat": self.heartbeat,
                "ttl_seconds": self.ttl_seconds,
                "prepared_key": self.prepared_key,
            },
        )

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Lease":
        """Inverse of :meth:`to_dict`."""
        return cls(**untag(data, "lease"))


class LeaseManager:
    """Claim, heartbeat, reclaim and release leases against one backend.

    One manager per worker: it carries the worker's identity (``owner``)
    and tallies the claim metrics the exactly-once tests assert on
    (:attr:`claims`, :attr:`conflicts`, :attr:`reclaims`).
    """

    #: A TTL is a finite number > 0: a NaN TTL would never expire, so a
    #: dead worker's points would never be reclaimed.
    TTL_RULE = Rule(float, low=0, strict=True)

    def __init__(
        self,
        backend: StoreBackend,
        owner: Optional[str] = None,
        ttl_seconds: float = DEFAULT_LEASE_TTL,
    ) -> None:
        self.backend = backend
        self.owner = owner or default_worker_id()
        self.ttl_seconds = float(self.TTL_RULE("lease ttl", ttl_seconds))
        #: Successful claims (fresh and reclaimed).
        self.claims = 0
        #: Claim attempts lost to a live lease held by another worker.
        self.conflicts = 0
        #: Successful claims that evicted an *expired* lease first.
        self.reclaims = 0

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def load(self, result_key: str) -> Optional[Lease]:
        """The current lease on ``result_key``, or ``None``."""
        data = self.backend.get(f"{LEASE_PREFIX}{result_key}.json")
        if data is None:
            return None
        import json

        return Lease.from_dict(json.loads(data.decode("utf-8")))

    def list_leases(self) -> List[Lease]:
        """Every lease in the store, in key order."""
        leases = []
        for key in self.backend.list(LEASE_PREFIX):
            data = self.backend.get(key)
            if data is None:  # raced a concurrent release
                continue
            import json

            leases.append(Lease.from_dict(json.loads(data.decode("utf-8"))))
        return leases

    # ------------------------------------------------------------------ #
    # The claim protocol
    # ------------------------------------------------------------------ #
    def _fresh(self, result_key: str, label: str, prepared_key: str) -> Lease:
        now = time.time()
        return Lease(
            result_key=result_key,
            owner=self.owner,
            label=label,
            claimed_at=now,
            heartbeat=now,
            ttl_seconds=self.ttl_seconds,
            prepared_key=prepared_key,
        )

    def claim(
        self, result_key: str, label: str = "", prepared_key: str = ""
    ) -> Optional[Lease]:
        """Try to claim the point computing ``result_key``.

        Returns the freshly minted :class:`Lease` on success, ``None`` when
        another worker holds a live lease.  An *expired* lease is evicted
        and re-claimed in one call; the eviction may race another
        reclaimer, in which case the follow-up ``put_if_absent`` decides —
        exactly one claimant ever wins the key.
        """
        lease = self._fresh(result_key, label, prepared_key)
        payload = canonical_json_bytes(lease.to_dict())
        if self.backend.put_if_absent(lease.key, payload):
            self.claims += 1
            return lease
        existing = self.load(result_key)
        if existing is not None and not existing.expired():
            self.conflicts += 1
            return None
        # Expired (or vanished between the put and the load): evict and
        # retry the atomic publish once.
        self.backend.delete(lease.key)
        lease = self._fresh(result_key, label, prepared_key)
        if self.backend.put_if_absent(
            lease.key, canonical_json_bytes(lease.to_dict())
        ):
            self.claims += 1
            if existing is not None:
                self.reclaims += 1
            return lease
        self.conflicts += 1
        return None

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: refresh ``lease``'s timestamp, proving the owner alive.

        Raises :class:`LeaseLost` when the lease on the key is no longer
        this worker's — it expired and another worker reclaimed the point.
        The caller may finish and publish anyway (the result bytes are
        identical), but must stop heartbeating this lease.
        """
        current = self.load(lease.result_key)
        if current is None or current.owner != self.owner:
            raise LeaseLost(
                f"lease on {lease.result_key} now held by "
                f"{current.owner if current else 'nobody'}; "
                f"{self.owner} lost it"
            )
        renewed = replace(current, heartbeat=time.time())
        self.backend.put(renewed.key, canonical_json_bytes(renewed.to_dict()))
        return renewed

    def release(self, lease: Lease) -> None:
        """Drop the claim (after the result is published).

        Only removes the lease while it is still this worker's — a
        reclaimed lease belongs to the new owner and is left alone.
        """
        current = self.load(lease.result_key)
        if current is not None and current.owner == self.owner:
            self.backend.delete(lease.key)
