"""Tests for the SQLite store behind the sweep result cache.

Covers the blob contract on a file store and on the ``memory`` store
(round trip, first-writer-wins publishes, delete), the typed
:class:`CacheBackendError` for a cache file that cannot be used, and the
``parse_backend`` spec grammar with its exit-code-2 error shapes.
"""

import re

import pytest

from repro.harness.cachestore import (
    CacheBackendError,
    SQLiteStore,
    parse_backend,
)


@pytest.fixture(params=["sqlite", "memory"])
def store(request, tmp_path):
    if request.param == "sqlite":
        built = SQLiteStore(tmp_path / "cache.sqlite")
    else:
        built = parse_backend("memory")
    yield built
    built.close()


# ------------------------------------------------------------------- blobs

class TestBlobContract:
    def test_round_trip_and_miss(self, store):
        assert store.get("k1") is None
        assert store.put("k1", b"payload") is True
        assert store.get("k1") == b"payload"
        assert len(store) == 1

    def test_first_writer_wins(self, store):
        assert store.put("k", b"first") is True
        # The losing publish reports False and never clobbers the winner.
        assert store.put("k", b"second") is False
        assert store.get("k") == b"first"

    def test_delete(self, store):
        store.put("k", b"x")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None


# ------------------------------------------------------- unusable cache file

class TestUnusableCacheFile:
    def test_non_database_file_raises_backend_error(self, tmp_path):
        path = tmp_path / "results.sqlite"
        path.write_bytes(b"not a database " * 200)
        with pytest.raises(CacheBackendError,
                           match=re.escape(f"cache {path}:")):
            SQLiteStore(path)

    def test_uncreatable_directory_raises_backend_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        path = blocker / "cache" / "results.sqlite"
        with pytest.raises(CacheBackendError,
                           match=re.escape(f"cache {path}:")):
            SQLiteStore(path)


# ----------------------------------------------------------------- factory

class TestParseBackend:
    def test_spec_dispatch(self, tmp_path):
        for spec in (f"sqlite:{tmp_path}/c.sqlite",
                     str(tmp_path / "auto.sqlite"),
                     str(tmp_path / "auto.sqlite3"),
                     str(tmp_path / "auto.db")):
            built = parse_backend(spec)
            assert isinstance(built, SQLiteStore)
            built.close()
        memory = parse_backend("memory")
        assert memory.path == ":memory:"
        memory.close()

    @pytest.mark.parametrize("bad", [
        "", "   ", "sqlite:", "dir:", "ftp://somewhere:21", "bogus:thing",
        "http://", "dir:.repro_cache", "http://localhost:8123",
        "dir:cache.sqlite", "http://host/cache.db", "./local_cache",
    ])
    def test_malformed_specs_raise_backend_error(self, bad):
        with pytest.raises(CacheBackendError, match="sqlite:PATH"):
            parse_backend(bad)

    def test_relative_paths_are_not_mistaken_for_schemes(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        for spec in ("local.sqlite", "./x/y.db", f"{tmp_path}/x/y.sqlite3"):
            built = parse_backend(spec)
            assert isinstance(built, SQLiteStore)
            built.close()
        assert (tmp_path / "local.sqlite").exists()
        assert (tmp_path / "x" / "y.db").exists()
