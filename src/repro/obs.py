"""One per-process registry of counters and spans, always on.

``count(name, n)`` adds ``n`` to a counter; ``span(name)`` times one call of
a block and adds it to that name's calls and seconds.  Both aggregate by
name, so the registry never grows with the length of a run.  The executor
returns each task's :func:`delta` with its result and the driver merges
the ones from other processes, so after a run the driver's registry
covers the work of its pool workers too.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Sequence

__all__ = ["Snapshot", "count", "counters", "delta", "merge", "snapshot", "span"]

#: ``{"counts": {name: n}, "spans": {name: (calls, seconds)}}``.
Snapshot = Dict[str, Dict[str, object]]

_LOCK = threading.Lock()
_REGISTRY: Snapshot = {"counts": {}, "spans": {}}


def merge(other: Snapshot) -> None:
    """Add ``other``'s counts and spans to this process's registry."""
    counts, spans = _REGISTRY["counts"], _REGISTRY["spans"]
    with _LOCK:
        for name, n in other["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, (calls, seconds) in other["spans"].items():
            old_calls, old_seconds = spans.get(name, (0, 0.0))
            spans[name] = (old_calls + calls, old_seconds + seconds)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name``."""
    merge({"counts": {name: n}, "spans": {}})


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time the block as one call of span ``name``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        merge({"counts": {}, "spans": {name: (1, time.perf_counter() - started)}})


def counters(prefix: str, names: Sequence[str]) -> Dict[str, int]:
    """``{name: value}`` of the counters ``prefix.name`` (0 if never counted)."""
    counts = snapshot()["counts"]
    return {name: counts.get(f"{prefix}.{name}", 0) for name in names}


def snapshot() -> Snapshot:
    """A copy of this process's registry."""
    with _LOCK:
        return {kind: dict(table) for kind, table in _REGISTRY.items()}


def delta(before: Snapshot) -> Snapshot:
    """What this process counted and timed since the snapshot ``before``."""
    now = snapshot()
    counts = {
        name: n - before["counts"].get(name, 0)
        for name, n in now["counts"].items()
        if n != before["counts"].get(name, 0)
    }
    spans = {}
    for name, (calls, seconds) in now["spans"].items():
        old_calls, old_seconds = before["spans"].get(name, (0, 0.0))
        if calls != old_calls:
            spans[name] = (calls - old_calls, seconds - old_seconds)
    return {"counts": counts, "spans": spans}
