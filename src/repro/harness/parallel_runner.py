"""The result cache and the shard pool under the sweep runner.

The paper's evaluation sweeps (workload x cores x consistency-model x
recorder-variant) grids; each cell — a *shard* — is one full recorded
execution and is by far the expensive step.
:class:`~repro.harness.runner.ExperimentRunner` drives every sweep
through the two pieces this module provides:

* :class:`ResultCache` — a content-addressed result cache in one SQLite
  file (:class:`~repro.harness.cachestore.SQLiteStore`), by default
  ``.repro_cache/results.sqlite``.  Entries are keyed by a SHA-256
  digest of the canonicalized :class:`~repro.harness.runner.RunKey`, the
  recorder variant configs and a code-version salt, computed with
  :func:`repro.common.hashing.stable_digest` so keys are identical across
  interpreter runs, ``PYTHONHASHSEED`` values and dict orderings.  An
  entry is a JSON header (what the figure tables read: the counters,
  each variant's merged stats, and the SHA-256 of the payload) and an
  opaque payload (the program, the per-core outputs and final state, and
  the logs), which a hit checks against its digest but decodes only when
  read.  Publishes are atomic and first-writer-wins; corrupt entries are
  deleted with a warning (and a per-reason counter) and recomputed.

* :class:`ShardPool` — maps a worker over a list of items, serially at
  ``jobs=1`` and otherwise over a ``ProcessPoolExecutor`` whose free
  workers take the next item from the head of one queue, so a straggler
  never idles the rest of the pool.  Replies come back in submission
  order; shards get a per-shard timeout and a retry budget, and anything
  still failing raises :class:`SweepError` naming the shard.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path

from ..common.config import RecorderConfig
from ..common.errors import ReproError
from ..common.hashing import canonical_digest, canonicalize
from ..sim.machine import RunResult
from ..sim.serialize import (SERIALIZATION_VERSION, check_keys,
                             split_run_result)
from .cachestore import SQLiteStore, parse_backend
from .runner import VARIANTS, RunKey

__all__ = ["CACHE_FORMAT", "DEFAULT_CACHE_DIR", "CACHE_FILE", "SweepError",
           "cache_key", "ResultCache", "ShardPool"]

#: Bumped when the cache envelope layout changes.
#: v2: a JSON header line, then the payload (program and logs) it digests.
#: v3: the header keeps the merged stats; the payload gains the detail part.
CACHE_FORMAT = 3

#: Where sweep results live unless a cache dir is given explicitly.
DEFAULT_CACHE_DIR = ".repro_cache"

#: The SQLite file a cache directory holds.
CACHE_FILE = "results.sqlite"

#: Code-version salt folded into every cache key: results recorded under a
#: different cache or wire format can never be mistaken for current ones.
CODE_SALT = f"cache-v{CACHE_FORMAT}:wire-v{SERIALIZATION_VERSION}"


#: The JSON types of the header keys after ``cache_format``.
_HEADER_KEYS = {"salt": (str,), "key": (dict,), "meta": (dict,),
                "payload_bytes": (int,), "payload_sha256": (str,),
                "result": (dict,)}


class SweepError(ReproError):
    """A sweep shard failed (after exhausting its retry budget)."""


def cache_key(key: RunKey,
              variants: dict[str, RecorderConfig] | None = None,
              *, salt: str = CODE_SALT) -> str:
    """Content address of one shard: digest of run key + variants + salt
    (``stable_digest`` of the three, with each distinct variants mapping
    canonicalized once)."""
    variants = VARIANTS if variants is None else variants
    return canonical_digest({
        "key": canonicalize(key.to_dict()),
        "variants": _canonical_variants(tuple(variants.items())),
        "salt": salt})


@functools.lru_cache(maxsize=16)
def _canonical_variants(items: tuple) -> dict:
    """The canonical form of one variants mapping, given as its items:
    ``RecorderConfig`` is frozen, so they key the memo.  Callers only
    read the shared result."""
    return canonicalize(dict(items))


class ResultCache:
    """Content-addressed persistent store of serialized run results.

    ``ResultCache(cache_dir)`` opens the SQLite file
    ``cache_dir/results.sqlite``; :meth:`from_spec` opens any spec
    :func:`~repro.harness.cachestore.parse_backend` accepts, and
    ``store=`` shares one open store between caches.  This class owns the
    envelope format and its validation; the store only sees opaque keyed
    blobs.

    An entry is one line of JSON header, then the payload
    (:func:`~repro.sim.serialize.split_run_result`): the header holds what
    the figure tables read and the payload's length and SHA-256, which
    :meth:`get` checks before it returns a result whose program, logs,
    per-core outputs and final state decode on first read.
    """

    def __init__(self, cache_dir: str | Path = DEFAULT_CACHE_DIR, *,
                 store: SQLiteStore | None = None):
        self.store = (store if store is not None
                      else SQLiteStore(Path(cache_dir) / CACHE_FILE))
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.write_races = 0
        #: Corrupt-entry counts by reason ("decode" | "format" |
        #: "key_mismatch" | "digest" | "schema") — telemetry can tell a
        #: truncated entry from a foreign-version envelope from a key
        #: collision from a damaged payload.
        self.corrupt_reasons: dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: str) -> "ResultCache":
        """Build a cache from a backend spec string (``sqlite:PATH``, a
        ``*.sqlite``/``*.sqlite3``/``*.db`` path, or ``memory``).

        Any other spec raises
        :class:`~repro.harness.cachestore.CacheBackendError`, which the
        CLI maps to the usage exit code (2).
        """
        return cls(store=parse_backend(spec))

    @property
    def corrupt(self) -> int:
        """Total corrupt entries (sum over :attr:`corrupt_reasons`)."""
        return sum(self.corrupt_reasons.values())

    # ------------------------------------------------------------- lookups

    def get(self, key: RunKey,
            variants: dict[str, RecorderConfig] | None = None
            ) -> RunResult | None:
        """The cached result for ``key``, or None on miss / corruption.

        An entry that cannot be parsed, fails header validation or whose
        payload does not match its digest is deleted from the store with
        a warning and a per-reason counter, and the shard is recomputed —
        a damaged cache never poisons a sweep.  The result's program,
        logs and :data:`~repro.sim.serialize.DETAIL_FIELDS` decode on
        first read; a bad one raises
        :class:`~repro.common.errors.LogFormatError` then.
        """
        address = cache_key(key, variants)
        data = self.store.get(address)
        if data is None:
            self.misses += 1
            return None
        reason = "decode"
        try:
            split = data.find(b"\n")
            if split < 0:
                raise ValueError("the entry has no header line")
            header = json.loads(data[:split])
            if type(header) is not dict:
                raise ValueError("the header is not a JSON object")
            if header.get("cache_format") != CACHE_FORMAT:
                reason = "format"
                raise ValueError(
                    f"cache format {header.get('cache_format')!r}, "
                    f"expected {CACHE_FORMAT}")
            check_keys(header, _HEADER_KEYS, "cache entry header")
            payload = memoryview(data)[split + 1:]
            if len(payload) != header["payload_bytes"]:
                raise ValueError(f"payload has {len(payload)} bytes, the "
                                 f"header says {header['payload_bytes']}")
            if header["key"] != key.to_dict():
                reason = "key_mismatch"
                raise ValueError("cache entry key does not match request")
            if (hashlib.sha256(payload).hexdigest()
                    != header["payload_sha256"]):
                reason = "digest"
                raise ValueError("payload does not match its SHA-256")
            reason = "schema"
            result = RunResult.from_dict(header["result"], payload)
        except Exception as exc:
            self.corrupt_reasons[reason] = (
                self.corrupt_reasons.get(reason, 0) + 1)
            warnings.warn(
                f"corrupt result-cache entry {address} "
                f"({reason}; {type(exc).__name__}: {exc}); "
                f"recomputing the shard", stacklevel=2)
            self.store.delete(address)
            return None
        self.hits += 1
        return result

    # ------------------------------------------------------------ publishes

    def put(self, key: RunKey, result: RunResult | tuple[dict, bytes],
            variants: dict[str, RecorderConfig] | None = None,
            *, meta: dict | None = None) -> None:
        """Atomically persist ``result`` under ``key``'s content address.

        ``result`` is a :class:`RunResult` or its cache form, the
        ``(header, payload)`` pair of
        :func:`~repro.sim.serialize.split_run_result` (a pooled sweep
        splits each worker's reply once).  First writer wins: if another
        sweep process sharing the cache file published this key first,
        this call's bytes are discarded (the entries are
        content-addressed, so they describe the same run anyway) and the
        race is counted in ``write_races``.
        """
        header, payload = (split_run_result(result.to_dict())
                           if isinstance(result, RunResult) else result)
        header = {
            "cache_format": CACHE_FORMAT,
            "salt": CODE_SALT,
            "key": key.to_dict(),
            "meta": meta or {},
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "result": header,
        }
        if self.store.put(cache_key(key, variants),
                          json.dumps(header).encode() + b"\n" + payload):
            self.writes += 1
        else:
            self.write_races += 1

    # ----------------------------------------------------------- accounting

    def counters(self) -> dict[str, int]:
        """Flat counter export for the metrics registry.

        Always carries the four classic keys; corruption reasons and
        publish races appear as extra keys only when nonzero, so existing
        dashboards keep their shape on a healthy cache.
        """
        out = {"hits": self.hits, "misses": self.misses,
               "corrupt": self.corrupt, "writes": self.writes}
        for reason in sorted(self.corrupt_reasons):
            out[f"corrupt.{reason}"] = self.corrupt_reasons[reason]
        if self.write_races:
            out["write_races"] = self.write_races
        return out

    def close(self) -> None:
        self.store.close()

    def __len__(self) -> int:
        return len(self.store)


class ShardPool:
    """Generic sharded map executor (the engine under the sweep runner).

    Maps a picklable ``worker`` over a list of items — with a per-shard
    timeout, a retry budget, and a serial in-process path at ``jobs=1``
    — and returns the replies **in submission order**, so a caller
    folding them is deterministic no matter how completions interleave.
    At ``jobs>1`` the items wait in one queue and each free worker takes
    the next one from its head, so a straggler never strands the items
    behind it.  :class:`~repro.harness.runner.ExperimentRunner` drives
    its sweeps through this; the fuzzer (:mod:`repro.fuzz.scheduler`)
    drives candidate evaluation through the very same pool with its own
    worker body.

    ``map`` callbacks (all optional) fire as shards progress:
    ``on_complete(index, item, reply)`` per success (completion order),
    ``on_retry(item, attempt, reason)`` before each re-submission,
    ``on_timeout(item, attempt)`` per timed-out attempt,
    ``observe_seconds(seconds)`` per finished/expired attempt, and
    ``heartbeat(in_flight)`` every ``heartbeat_s`` of pool silence.
    Shards that exhaust their retries raise :class:`SweepError`.
    """

    def __init__(self, *, jobs: int = 1, worker, timeout_s: float | None = None,
                 retries: int = 1):
        self.jobs = max(1, jobs)
        self.worker = worker
        self.timeout_s = timeout_s
        self.retries = max(0, retries)

    def map(self, items, *, payload, describe=str, on_complete=None,
            on_retry=None, on_timeout=None, observe_seconds=None,
            heartbeat=None, heartbeat_s: float | None = None,
            executor: ProcessPoolExecutor | None = None) -> list:
        """Run ``worker(payload(item, attempt))`` for every item.

        ``payload`` builds the (picklable) attempt payload; ``describe``
        renders an item for error and retry lines.  ``executor``
        optionally supplies the pool (tests pass a thread pool); at
        ``jobs>1`` one is created for the call when absent.
        """
        items = list(items)
        if not items:
            return []
        replies: list = [None] * len(items)

        def complete(index: int, reply) -> None:
            replies[index] = reply
            if on_complete is not None:
                on_complete(index, items[index], reply)

        if self.jobs == 1:
            self._map_serial(items, payload, describe, complete, on_retry,
                             observe_seconds)
            return replies
        failures: list[str] = []
        ready: deque[int] = deque(range(len(items)))
        in_flight: dict = {}   # future -> (index, attempt, started, deadline)
        own_executor = executor is None
        if own_executor:
            executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(items)))

        def submit(index: int, attempt: int) -> None:
            future = executor.submit(self.worker,
                                     payload(items[index], attempt))
            started = time.monotonic()
            deadline = (None if self.timeout_s is None
                        else started + self.timeout_s)
            in_flight[future] = (index, attempt, started, deadline)

        def fail(index: int, attempt: int, reason: str) -> None:
            if attempt < self.retries:
                if on_retry is not None:
                    on_retry(items[index], attempt + 1, reason)
                submit(index, attempt + 1)
            else:
                failures.append(f"{describe(items[index])}: {reason}")

        try:
            while ready or in_flight:
                while ready and len(in_flight) < self.jobs:
                    submit(ready.popleft(), 0)
                timeout = heartbeat_s or None
                deadlines = [deadline for (_, _, _, deadline)
                             in in_flight.values() if deadline is not None]
                if deadlines:
                    budget = max(0.0, min(deadlines) - time.monotonic())
                    timeout = budget if timeout is None else min(timeout,
                                                                 budget)
                done, _ = wait(set(in_flight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                now = time.monotonic()
                if not done and heartbeat is not None:
                    heartbeat(len(in_flight))
                for future in done:
                    index, attempt, started, _ = in_flight.pop(future)
                    if observe_seconds is not None:
                        observe_seconds(now - started)
                    exc = future.exception()
                    if exc is None:
                        complete(index, future.result())
                    else:
                        fail(index, attempt, f"{type(exc).__name__}: {exc}")
                expired = [future for future, (_, _, _, deadline)
                           in in_flight.items()
                           if deadline is not None and deadline <= now]
                for future in expired:
                    index, attempt, started, _ = in_flight.pop(future)
                    future.cancel()
                    if on_timeout is not None:
                        on_timeout(items[index], attempt)
                    if observe_seconds is not None:
                        observe_seconds(now - started)
                    fail(index, attempt,
                         f"timed out after {self.timeout_s:.1f}s")
        finally:
            if own_executor:
                executor.shutdown(wait=False, cancel_futures=True)
        if failures:
            raise SweepError("sweep shards failed:\n  " +
                             "\n  ".join(failures))
        return replies

    def _map_serial(self, items, payload, describe, complete, on_retry,
                    observe_seconds) -> None:
        for index, item in enumerate(items):
            attempt = 0
            while True:
                started = time.perf_counter()
                try:
                    reply = self.worker(payload(item, attempt))
                except Exception as exc:
                    attempt += 1
                    if attempt > self.retries:
                        raise SweepError(
                            f"shard {describe(item)} failed after "
                            f"{attempt} attempts: {exc}") from exc
                    if on_retry is not None:
                        on_retry(item, attempt,
                                 f"attempt {attempt} failed ({exc})")
                    continue
                finally:
                    if observe_seconds is not None:
                        observe_seconds(time.perf_counter() - started)
                complete(index, reply)
                break
