"""The SQLite file behind the sweep result cache.

:class:`SQLiteStore` keeps every cached shard result as one row of a
single SQLite database in WAL mode, so a reader never blocks behind a
writer and several sweep processes on one host can share one cache file.
Keys are the SHA-256 content addresses of
:func:`repro.harness.parallel_runner.cache_key`; values are opaque
bytes.  A publish is ``INSERT OR IGNORE``: the first writer of a key
wins and later writers get ``False`` back, so two sweeps racing on one
cell stay correct (both may compute it, one copy is kept).

:func:`parse_backend` builds a store from a spec string (see
:data:`BACKEND_SPECS`); ``memory`` is an in-memory database for tests.
A spec of any other shape, a file that is not a database, or a cache
directory that cannot be created raises :class:`CacheBackendError`.
"""

from __future__ import annotations

import re
import sqlite3
from pathlib import Path

from ..common.errors import ConfigError

__all__ = ["CacheBackendError", "SQLiteStore", "parse_backend",
           "BACKEND_SPECS"]

#: Spec shapes :func:`parse_backend` accepts (quoted in its errors).
BACKEND_SPECS = ("sqlite:PATH", "a PATH ending in .sqlite, .sqlite3 or .db",
                 "memory")

_SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: A URL-style scheme prefix; two letters at least, so a Windows drive
#: (``C:``) still reads as a path.
_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]+:")

#: How long a writer waits on another process's write lock.
_BUSY_TIMEOUT_S = 30.0


class CacheBackendError(ConfigError):
    """A cache backend spec is malformed or the cache file cannot be used.

    Subclasses :class:`~repro.common.errors.ConfigError` so the CLIs map
    it to the usage exit code (2).
    """


class SQLiteStore:
    """Keyed blob store in one SQLite file (or ``":memory:"``).

    Rows live in the table ``entries (key, data)``; :meth:`put` is first
    writer wins.  Opening a file that is not a database, or a path whose
    directory cannot be created, raises :class:`CacheBackendError`
    naming the path.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        try:
            if self.path != ":memory:":
                Path(self.path).parent.mkdir(parents=True, exist_ok=True)
            self._db = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S)
        except (OSError, sqlite3.DatabaseError) as exc:
            raise CacheBackendError(
                f"cannot open result cache {self.path}: {exc}") from exc
        try:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "  key TEXT PRIMARY KEY,"
                "  data BLOB NOT NULL)")
            self._db.commit()
        except sqlite3.DatabaseError as exc:
            self._db.close()
            raise CacheBackendError(
                f"cannot open result cache {self.path}: {exc}") from exc

    def get(self, key: str) -> bytes | None:
        row = self._db.execute(
            "SELECT data FROM entries WHERE key = ?", (key,)).fetchone()
        return None if row is None else bytes(row[0])

    def put(self, key: str, data: bytes) -> bool:
        """Store ``data`` unless ``key`` already exists; returns True iff
        this call created the entry."""
        cursor = self._db.execute(
            "INSERT OR IGNORE INTO entries (key, data) VALUES (?, ?)",
            (key, data))
        self._db.commit()
        return cursor.rowcount > 0

    def delete(self, key: str) -> bool:
        cursor = self._db.execute("DELETE FROM entries WHERE key = ?", (key,))
        self._db.commit()
        return cursor.rowcount > 0

    def __len__(self) -> int:
        return self._db.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def close(self) -> None:
        self._db.close()


def parse_backend(spec: str) -> SQLiteStore:
    """Build a :class:`SQLiteStore` from a backend spec string::

        sqlite:results.sqlite    results.sqlite    memory

    Anything else — ``dir:`` and ``http://`` specs included — raises
    :class:`CacheBackendError` listing :data:`BACKEND_SPECS` (the CLIs
    map it to exit code 2).
    """
    spec = spec.strip()
    scheme = _SCHEME.match(spec)
    if spec == "memory":
        return SQLiteStore(":memory:")
    if scheme and scheme.group() == "sqlite:" and spec[len("sqlite:"):]:
        return SQLiteStore(spec[len("sqlite:"):])
    if not scheme and spec.endswith(_SQLITE_SUFFIXES):
        return SQLiteStore(spec)
    raise CacheBackendError(
        f"unsupported cache backend {spec!r}; expected one of: "
        + ", ".join(BACKEND_SPECS))
