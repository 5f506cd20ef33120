"""Stable, process-independent hashing of configuration objects.

The parallel experiment runner addresses its on-disk result cache by a
digest of the run description (workload, machine config, recorder
variants, work scale, seed, ...).  For that digest to be usable *across*
interpreter runs it must not depend on anything process-local:

* Python's built-in ``hash()`` is salted per process for strings
  (``PYTHONHASHSEED``), so it never appears here;
* ``repr()`` of arbitrary objects can embed ``id()`` addresses, so
  canonicalization only accepts a closed set of JSON-able shapes;
* dictionaries are serialized with sorted keys, making the digest
  independent of insertion/iteration order.

:func:`canonical_json` renders dataclasses, enums, dicts, sequences and
scalars into a deterministic JSON string; :func:`stable_digest` hashes it
with SHA-256.  Anything outside that closed set raises ``TypeError``
rather than silently hashing an address.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math

__all__ = ["canonicalize", "canonical_json", "stable_digest"]


def canonicalize(obj):
    """Reduce ``obj`` to plain JSON-able data with deterministic ordering."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise TypeError(f"cannot canonicalize non-finite float {obj!r}")
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {field.name: canonicalize(getattr(obj, field.name))
                for field in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        out = {}
        for key in obj:
            if isinstance(key, enum.Enum):
                name = str(key.value)
            elif isinstance(key, (str, int, float, bool)):
                name = str(key)
            else:
                raise TypeError(f"cannot canonicalize dict key {key!r}")
            out[name] = canonicalize(obj[key])
        return {name: out[name] for name in sorted(out)}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonicalize(item) for item in obj]
        return sorted(items, key=lambda item: json.dumps(item, sort_keys=True))
    raise TypeError(f"cannot canonicalize {type(obj).__name__} value {obj!r}")


def canonical_json(obj) -> str:
    """Deterministic JSON text of :func:`canonicalize`'s output."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"))


def stable_digest(obj, *, length: int = 32) -> str:
    """Hex SHA-256 digest of ``obj``'s canonical JSON (stable across
    interpreter runs, ``PYTHONHASHSEED`` values and dict orderings)."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:length]

