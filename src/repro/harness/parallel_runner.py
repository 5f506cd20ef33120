"""Parallel sharded experiment executor with a persistent result cache.

The paper's evaluation sweeps (workload x cores x consistency-model x
recorder-variant) grids; each cell — a *shard* — is one full recorded
execution and is by far the expensive step.  This module provides the
production path for those sweeps:

* :class:`ResultCache` — a content-addressed result cache in one SQLite
  file (:class:`~repro.harness.cachestore.SQLiteStore`), by default
  ``.repro_cache/results.sqlite``.  Entries are keyed by a SHA-256
  digest of the canonicalized :class:`~repro.harness.runner.RunKey`, the
  recorder variant configs and a code-version salt, computed with
  :func:`repro.common.hashing.stable_digest` so keys are identical across
  interpreter runs, ``PYTHONHASHSEED`` values and dict orderings.
  Publishes are atomic and first-writer-wins; corrupt entries are
  deleted with a warning (and a per-reason counter) and recomputed.

* :class:`ShardPool` — maps a worker over a list of items, serially at
  ``jobs=1`` and otherwise over a ``ProcessPoolExecutor`` whose free
  workers take the next item from the head of one queue, so a straggler
  never idles the rest of the pool.  Replies come back in submission
  order; shards get a per-shard timeout and a retry budget, and anything
  still failing raises :class:`SweepError` naming the shard.

* :class:`ParallelRunner` — satisfies a sweep grid from the cache and
  runs the rest through a :class:`ShardPool`.  Each worker executes
  :func:`repro.harness.runner.execute_run` (the exact code path the
  serial runner uses) and returns the result in the JSON wire format of
  :mod:`repro.sim.serialize`, plus a small counter export that the parent
  folds into its :class:`~repro.obs.metrics.MetricsRegistry`.

* Cross-process telemetry (:mod:`repro.obs.telemetry`): every shard's
  full metrics snapshot — and, when
  :class:`~repro.obs.telemetry.TelemetryConfig` opts in, a bounded trace
  ring buffer — is ingested by a :class:`TelemetryAggregator` and folded
  into the sweep registry as a deterministic rollup, so a parallel
  sweep's merged metrics are identical to a serial sweep's.  Malformed
  worker telemetry is quarantined, never fatal.  A
  :class:`~repro.obs.telemetry.SweepProgress` tracker emits per-shard
  completion lines with ETA plus periodic heartbeats.

Because every completed shard lands in the cache immediately, an
interrupted sweep is resumable: a rerun skips the cached shards and only
executes what is missing.  :func:`add_sweep_flags` and :func:`open_cache`
give both CLIs the one set of sweep flags that selects the pool width and
the cache.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

from ..common.config import RecorderConfig
from ..common.errors import ReproError
from ..common.hashing import stable_digest
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.telemetry import (TELEMETRY_FORMAT, SweepProgress,
                             TelemetryAggregator, TelemetryConfig)
from ..sim.machine import RunResult
from ..sim.serialize import SERIALIZATION_VERSION
from .cachestore import SQLiteStore, parse_backend
from .runner import VARIANTS, RunKey, execute_run

_LOG = get_logger("harness.sweep")

__all__ = ["CACHE_FORMAT", "DEFAULT_CACHE_DIR", "CACHE_FILE", "SweepError",
           "cache_key", "ResultCache", "ShardOutcome", "ShardPool",
           "ParallelRunner", "add_sweep_flags", "open_cache"]

#: Bumped when the cache envelope layout changes.
CACHE_FORMAT = 1

#: Where sweep results live unless a cache dir is given explicitly.
DEFAULT_CACHE_DIR = ".repro_cache"

#: The SQLite file a cache directory holds.
CACHE_FILE = "results.sqlite"

#: Code-version salt folded into every cache key: results recorded under a
#: different cache or wire format can never be mistaken for current ones.
CODE_SALT = f"cache-v{CACHE_FORMAT}:wire-v{SERIALIZATION_VERSION}"


class SweepError(ReproError):
    """A sweep shard failed (after exhausting its retry budget)."""


def cache_key(key: RunKey,
              variants: dict[str, RecorderConfig] | None = None,
              *, salt: str = CODE_SALT) -> str:
    """Content address of one shard: digest of run key + variants + salt."""
    variants = VARIANTS if variants is None else variants
    return stable_digest({"key": key.to_dict(), "variants": variants,
                          "salt": salt})


class ResultCache:
    """Content-addressed persistent store of serialized run results.

    ``ResultCache(cache_dir)`` opens the SQLite file
    ``cache_dir/results.sqlite``; :meth:`from_spec` opens any spec
    :func:`~repro.harness.cachestore.parse_backend` accepts, and
    ``store=`` shares one open store between caches.  This class owns the
    envelope format and its validation; the store only sees opaque keyed
    blobs.
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
        #: "key_mismatch" | "schema") — telemetry can tell a truncated
        #: entry from a foreign-version envelope from a digest collision.
        self.corrupt_reasons: dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: str) -> "ResultCache":
        """Build a cache from a backend spec string (``sqlite:PATH``, a
        ``*.sqlite``/``*.sqlite3``/``*.db`` path, or ``memory``).

        Any other spec raises
        :class:`~repro.harness.cachestore.CacheBackendError`, which the
        CLIs map to the usage exit code (2).
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

        An entry that cannot be parsed or fails envelope validation is
        deleted from the store with a warning and a per-reason counter,
        and the shard is recomputed — a damaged cache never poisons a
        sweep.
        """
        address = cache_key(key, variants)
        data = self.store.get(address)
        if data is None:
            self.misses += 1
            return None
        reason = "decode"
        try:
            envelope = json.loads(data)
            if envelope.get("cache_format") != CACHE_FORMAT:
                reason = "format"
                raise ValueError(
                    f"cache format {envelope.get('cache_format')!r}, "
                    f"expected {CACHE_FORMAT}")
            if envelope.get("key") != key.to_dict():
                reason = "key_mismatch"
                raise ValueError("cache entry key does not match request")
            reason = "schema"
            result = RunResult.from_dict(envelope["result"])
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

    def put(self, key: RunKey, result: RunResult,
            variants: dict[str, RecorderConfig] | None = None,
            *, meta: dict | None = None) -> None:
        """Atomically persist ``result`` under ``key``'s content address.

        First writer wins: if another sweep process sharing the cache
        file published this key first, this call's bytes are discarded
        (the entries are content-addressed, so they describe the same run
        anyway) and the race is counted in ``write_races``.
        """
        envelope = {
            "cache_format": CACHE_FORMAT,
            "salt": CODE_SALT,
            "key": key.to_dict(),
            "meta": meta or {},
            "result": result.to_dict(),
        }
        if self.store.put(cache_key(key, variants),
                          json.dumps(envelope).encode()):
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


# -------------------------------------------------------- worker protocol

def _execute_shard(payload: dict) -> dict:
    """Worker entry point: record one shard, return the wire-format dict.

    ``payload`` and the return value are plain JSON-able dicts — the
    whole worker protocol round-trips through
    :mod:`repro.sim.serialize`, which is also what lets results come back
    across the process boundary and land directly in the cache.
    """
    started = time.perf_counter()
    key = RunKey.from_dict(payload["key"])
    from ..storage import config_from_dict
    variants = {name: config_from_dict(RecorderConfig, data)
                for name, data in payload["variants"].items()}
    telemetry = payload.get("telemetry") or {}
    tracer = None
    if telemetry.get("capture_trace"):
        from ..obs.tracer import Tracer
        tracer = Tracer(capacity=int(telemetry.get("trace_capacity", 4096)))
    result = execute_run(key, variants, tracer=tracer)
    wall = time.perf_counter() - started
    telemetry_reply = None
    if tracer is not None:
        from ..obs.exporters import event_to_dict
        # Trace accounting travels in this side channel, never in the
        # result: the RunResult a traced shard returns (and caches) must
        # stay byte-identical to an untraced run of the same key.
        if result.metrics is not None:
            result.metrics = MetricsSnapshot(
                {name: value for name, value in result.metrics.values.items()
                 if not name.startswith("obs.trace.")})
        telemetry_reply = {
            "format": TELEMETRY_FORMAT,
            "trace": [event_to_dict(event) for event in tracer.events()],
            "trace_stats": tracer.stats(),
        }
    reply = {
        "key": payload["key"],
        "attempt": payload["attempt"],
        "result": result.to_dict(),
        "wall_seconds": wall,
        "counters": {
            "instructions": result.total_instructions,
            "mem_instructions": result.total_mem_instructions,
            "cycles": result.cycles,
            "bus_transactions": result.bus_transactions,
        },
        "worker": {"pid": os.getpid()},
    }
    if telemetry_reply is not None:
        reply["telemetry"] = telemetry_reply
    return reply




@dataclass(frozen=True)
class ShardOutcome:
    """How one shard of a sweep was satisfied."""

    key: RunKey
    source: str          # "cache" | "run"
    attempts: int
    wall_seconds: float


class ShardPool:
    """Generic sharded map executor (the engine under the sweep runner).

    Maps a picklable ``worker`` over a list of items — with a per-shard
    timeout, a retry budget, and a serial in-process path at ``jobs=1``
    — and returns the replies **in submission order**, so a caller
    folding them is deterministic no matter how completions interleave.
    At ``jobs>1`` the items wait in one queue and each free worker takes
    the next one from its head, so a straggler never strands the items
    behind it.  :class:`ParallelRunner` drives its sweeps through this;
    the fuzzer (:mod:`repro.fuzz.scheduler`) drives candidate evaluation
    through the very same pool with its own worker body.

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
        optionally reuses a warmed pool (benchmarks); at ``jobs>1`` one
        is created for the call when absent.
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


class ParallelRunner:
    """Process-pool executor for (workload x cores x model) sweep grids.

    Parameters
    ----------
    jobs:
        Worker-pool width; ``1`` runs shards serially in-process (no
        pool), which is also the fallback the tests exercise.
    cache:
        Optional :class:`ResultCache` consulted before executing a shard
        and populated as shards complete (this is what makes interrupted
        sweeps resumable).
    variants:
        Recorder variant configs attached to every shard (defaults to the
        harness ``VARIANTS``); part of the cache key.
    timeout_s:
        Per-shard wall-clock budget.  A shard that exceeds it counts as a
        failure (the stuck worker cannot be killed portably, but its
        result is discarded) and is retried on a fresh worker.
    retries:
        How many additional attempts a failed/timed-out shard gets
        (default 1: "retry once").
    registry:
        :class:`~repro.obs.metrics.MetricsRegistry` receiving sweep
        progress counters (``sweep.*``) and worker counter exports
        (``sweep.worker.*``); a private one is created if absent.
    progress:
        Optional callable (or ``True`` for stderr) fed one human-readable
        line per completed shard; when absent, the lines go to the
        ``repro.harness.sweep`` structured logger at INFO instead.
    worker:
        The picklable shard function (test seam; defaults to the real
        :func:`_execute_shard`).
    telemetry:
        :class:`~repro.obs.telemetry.TelemetryConfig` controlling what
        workers capture beyond the result (trace ring buffers are
        opt-in).  Worker metrics snapshots are always folded into
        ``registry`` through the :attr:`aggregator`, so a parallel
        sweep's merged metrics match the serial path.
    """

    def __init__(self, *, jobs: int | None = None,
                 cache: ResultCache | None = None,
                 variants: dict[str, RecorderConfig] | None = None,
                 timeout_s: float | None = None, retries: int = 1,
                 registry: MetricsRegistry | None = None,
                 progress=None, worker=None,
                 telemetry: TelemetryConfig | None = None):
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.cache = cache
        self.variants = VARIANTS if variants is None else dict(variants)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.worker = worker if worker is not None else _execute_shard
        if progress is True:
            progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
        self.progress = progress
        self.telemetry = telemetry if telemetry is not None else TelemetryConfig()
        self.aggregator = TelemetryAggregator()
        self._progress_tracker: SweepProgress | None = None
        self.executed = 0
        self.outcomes: list[ShardOutcome] = []

    # ------------------------------------------------------------- driving

    def run(self, keys) -> dict[RunKey, RunResult]:
        """Satisfy every shard in ``keys`` (cache first, then the pool)."""
        ordered: list[RunKey] = []
        for key in keys:
            if key not in ordered:
                ordered.append(key)
        sweep = self.registry.scoped("sweep")
        sweep.counter("shards_total").inc(len(ordered))
        sweep.gauge("jobs").set(self.jobs)
        started = time.perf_counter()
        self._progress_tracker = SweepProgress(
            len(ordered), jobs=self.jobs, emit=self._note,
            heartbeat_s=self.telemetry.heartbeat_s)

        results: dict[RunKey, RunResult] = {}
        pending: list[RunKey] = []
        for key in ordered:
            cached = (self.cache.get(key, self.variants)
                      if self.cache is not None else None)
            if cached is not None:
                results[key] = cached
                self.outcomes.append(ShardOutcome(key, "cache", 0, 0.0))
                self.aggregator.ingest(key.label(), metrics=cached.metrics,
                                       source="cache")
                self._progress_tracker.shard_done(key.describe(), "cache")
            else:
                pending.append(key)
        sweep.counter("cache_hits").inc(len(ordered) - len(pending))

        if pending:
            self._execute(pending, results)
        if self.cache is not None:
            self.registry.set_counters(self.cache.counters(),
                                       prefix="sweep.cache")
        sweep.counter("executed").value = self.executed
        sweep.gauge("wall_seconds").set(time.perf_counter() - started)
        # Fold every shard's telemetry (worker metrics snapshots + any
        # trace accounting) into the sweep registry; deterministic merge,
        # so parallel and serial sweeps export identical metrics.
        self.aggregator.merge_into(self.registry)
        return results

    def _execute(self, pending, results) -> None:
        """Drive the outstanding shards through the shard pool."""
        sweep = self.registry.scoped("sweep")

        def on_retry(key: RunKey, attempt: int, reason: str) -> None:
            sweep.counter("retried").inc()
            self._note(f"[sweep] {key.describe()}: {reason}; retrying")

        pool = ShardPool(jobs=self.jobs, worker=self.worker,
                         timeout_s=self.timeout_s, retries=self.retries)
        pool.map(pending, payload=self._payload, describe=RunKey.describe,
                 on_complete=lambda index, key, reply:
                     self._accept(key, reply, results),
                 on_retry=on_retry,
                 on_timeout=lambda key, attempt:
                     sweep.counter("timeouts").inc(),
                 observe_seconds=sweep.distribution("shard_seconds").observe,
                 heartbeat=lambda in_flight:
                     self._progress_tracker.heartbeat(in_flight),
                 heartbeat_s=self.telemetry.heartbeat_s)

    # ------------------------------------------------------------ plumbing

    def _payload(self, key: RunKey, attempt: int) -> dict:
        from ..storage import config_to_dict
        return {
            "protocol_version": SERIALIZATION_VERSION,
            "key": key.to_dict(),
            "attempt": attempt,
            "variants": {name: config_to_dict(config)
                         for name, config in self.variants.items()},
            "telemetry": self.telemetry.to_dict(),
        }

    def _accept(self, key: RunKey, reply: dict, results: dict) -> None:
        result = RunResult.from_dict(reply["result"])
        results[key] = result
        self.executed += 1
        attempts = reply.get("attempt", 0) + 1
        wall = reply.get("wall_seconds", 0.0)
        self.outcomes.append(ShardOutcome(key, "run", attempts, wall))
        self.registry.inc_counters(reply.get("counters", {}),
                                   prefix="sweep.worker")
        self.registry.scoped("sweep").counter("shards_run").inc()
        # A malformed telemetry payload is quarantined inside the
        # aggregator, never raised: one corrupt reply must not kill the
        # sweep (the result itself already validated via from_dict).
        self.aggregator.ingest(key.label(), metrics=result.metrics,
                               payload=reply.get("telemetry"), source="run")
        if self.cache is not None:
            self.cache.put(key, result, self.variants,
                           meta={"wall_seconds": wall,
                                 "worker": reply.get("worker", {})})
        self._progress_tracker.shard_done(key.describe(), "run", wall)

    def _note(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)
        else:
            _LOG.info(line)


# ------------------------------------------------------------- sweep flags

def add_sweep_flags(parser, *, jobs: int | None) -> None:
    """Add ``--jobs``, ``--cache-dir``, ``--no-cache`` and ``--resume`` —
    the sweep flags every sweep command shares — to an argparse parser.

    ``jobs`` is the command's ``--jobs`` default (``None``: CPU count).
    ``--resume`` and ``--no-cache`` exclude each other.
    """
    parser.add_argument("--jobs", type=int, default=jobs,
                        help="worker processes for the recording sweep "
                             + ("(default: CPU count)" if jobs is None
                                else f"(default {jobs})"))
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="result cache directory; results live in "
                             f"DIR/{CACHE_FILE} (default {DEFAULT_CACHE_DIR})")
    use = parser.add_mutually_exclusive_group()
    use.add_argument("--no-cache", action="store_true",
                     help="do not read or write the result cache")
    use.add_argument("--resume", action="store_true",
                     help="resume an interrupted sweep from the cached "
                          "shards (cache reads are on by default; this "
                          "makes the intent explicit)")


def open_cache(args) -> ResultCache | None:
    """The result cache :func:`add_sweep_flags` selected (None under
    ``--no-cache``).  An unusable cache file raises
    :class:`~repro.harness.cachestore.CacheBackendError`."""
    return None if args.no_cache else ResultCache(args.cache_dir)
