"""Versioned ``to_dict`` / ``from_dict`` plumbing for the public dataclasses.

Every config and result dataclass of the public API (``ScenarioConfig``,
``ExperimentConfig``, ``SweepSpec``, ``CostBreakdown``, ``ApproachResult``,
``ExperimentResult``, ``SweepResult`` and their nested pieces) serializes to
a plain-JSON dictionary carrying two envelope fields:

``"schema"``
    The serialization schema version (:data:`SCHEMA_VERSION`).  Readers
    refuse payloads from a *newer* schema — an old library cannot know what
    a future field means — and may migrate older ones explicitly.
``"kind"``
    The payload type tag (e.g. ``"scenario_config"``), so a payload pasted
    into the wrong ``from_dict`` fails with a clear error instead of a
    confusing ``TypeError`` deep inside a constructor.

The generic helpers here cover flat dataclasses whose fields are JSON
scalars or tuples of them (a tuple field's rule turns the JSON list back
into a tuple); classes with non-trivial fields (nested dataclasses, numpy
arrays) implement their own ``to_dict`` / ``from_dict`` on top of them or
of :func:`tag` / :func:`untag`.

Floats round-trip exactly: ``json`` emits ``repr``-style shortest
representations, which Python parses back to the identical IEEE-754 value —
the golden-vs-store regression tests rely on this.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import Any, Dict, Mapping, Type, TypeVar

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "canonical_json",
    "canonical_json_bytes",
    "content_key",
    "simple_from_dict",
    "simple_to_dict",
    "tag",
    "untag",
]

#: Current serialization schema version.  Bump when a persisted layout
#: changes incompatibly, and teach ``untag`` (or the affected ``from_dict``)
#: how to migrate the older payloads.
SCHEMA_VERSION = 1

T = TypeVar("T")


class SchemaError(ValueError):
    """A serialized payload has the wrong kind or an unsupported schema."""


def tag(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap ``payload`` in the versioned envelope."""
    return {"schema": SCHEMA_VERSION, "kind": kind, **payload}


def untag(data: Mapping[str, Any], kind: str) -> Dict[str, Any]:
    """Validate the envelope and return the payload fields.

    Raises :class:`SchemaError` when ``data`` is not a mapping, carries a
    different ``kind`` tag, or was written by a newer schema than this
    library understands.
    """
    if not isinstance(data, Mapping):
        raise SchemaError(f"expected a {kind!r} mapping, got {type(data).__name__}")
    got_kind = data.get("kind")
    if got_kind != kind:
        raise SchemaError(f"expected kind {kind!r}, got {got_kind!r}")
    version = data.get("schema")
    if not isinstance(version, int) or version < 1:
        raise SchemaError(f"{kind!r} payload carries invalid schema {version!r}")
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"{kind!r} payload uses schema {version}, but this library only "
            f"understands up to {SCHEMA_VERSION}; upgrade the library to read it"
        )
    return {k: v for k, v in data.items() if k not in ("schema", "kind")}


def _jsonify(value: Any) -> Any:
    """Tuples become lists (JSON has no tuple); scalars pass through."""
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    return value


def simple_to_dict(obj: Any, kind: str) -> Dict[str, Any]:
    """Serialize a flat dataclass (JSON scalars and tuples only)."""
    if not is_dataclass(obj):
        raise TypeError(f"{type(obj).__name__} is not a dataclass")
    payload = {f.name: _jsonify(getattr(obj, f.name)) for f in fields(obj)}
    return tag(kind, payload)


def simple_from_dict(cls: Type[T], data: Mapping[str, Any], kind: str) -> T:
    """Rebuild a flat dataclass serialized by :func:`simple_to_dict`.

    JSON lists come back as tuples through the class's own field rules (see
    :mod:`repro.utils.validation`).  Unknown payload keys are rejected so
    typos and stale fields surface immediately.
    """
    payload = untag(data, kind)
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise SchemaError(
            f"{kind!r} payload has unknown fields {sorted(unknown)!r}"
        )
    return cls(**payload)


def canonical_json(data: Any) -> str:
    """Deterministic JSON used for content keys and byte-compared artifacts."""
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def canonical_json_bytes(data: Any) -> bytes:
    """:func:`canonical_json` as UTF-8 bytes — what a
    :class:`~repro.store.backends.StoreBackend` ``put`` takes verbatim, so
    identical payloads written by racing workers are identical byte strings
    (the lease and result families of the distributed sweep rely on this).
    """
    return canonical_json(data).encode("utf-8")


def content_key(data: Any) -> str:
    """Content key of ``data``: SHA-256 of its :func:`canonical_json`, 16 hex digits."""
    return hashlib.sha256(canonical_json_bytes(data)).hexdigest()[:16]
