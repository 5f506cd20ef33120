"""The sweep runner: every recorded execution the harness uses comes
through :class:`ExperimentRunner`.

Every figure of Section 5 is computed from the same small set of recorded
executions (12 workloads x {4, 8, 16} cores); recording is by far the
expensive step, so the runner memoizes :class:`~repro.sim.machine.RunResult`
objects by (workload, cores, scale, seed, consistency).  All four recorder
variants (Base/Opt x 4K/INF) — plus a smaller 512-instruction cap used to
expose interval-size sensitivity at reproduction scale — observe each
execution simultaneously, which is sound because recording is passive.

One path satisfies a run key: the memo, then the persistent
:class:`~repro.harness.parallel_runner.ResultCache` (the SQLite file
``DIR/results.sqlite`` for ``cache_dir=DIR``, or any spec
:meth:`~repro.harness.parallel_runner.ResultCache.from_spec` accepts for
``cache_backend=...``), then a recording, put in the cache as it lands.
:meth:`ExperimentRunner.record` records in-process; a sweep
(:meth:`ExperimentRunner.prefetch`) does too at ``jobs=1`` and otherwise
records through one :class:`~repro.harness.parallel_runner.ShardPool`
map, whose workers send each result back in the JSON wire format of
:mod:`repro.sim.serialize`.  An interrupted sweep resumes from the shards
already cached.  A sweep's ``sweep.*`` metrics (:meth:`sweep_metrics`)
are counted from the pool's callbacks and folded from the results' own
metrics snapshots, in shard-label order, so they do not depend on the
pool width or on completion order; :class:`SweepProgress` logs its
progress, ETA and heartbeat lines to the ``repro.harness.sweep`` logger.

The work scale can be set globally with the ``REPRO_SCALE`` environment
variable (default 1.0); smaller values make the benchmark suite faster at
the cost of noisier statistics.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from ..baselines import (
    CoreRacerRecorder,
    FDRPointwiseRecorder,
    RTRValueRecorder,
    SCChunkRecorder,
)
from ..common.config import (
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from ..obs.exporters import event_to_dict
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry, MetricsSnapshot, rollup_snapshots
from ..obs.tracer import Tracer
from ..sim import Machine, RunResult
from ..sim.serialize import split_run_result
from ..workloads import WORKLOAD_NAMES, build_workload

__all__ = ["VARIANTS", "VARIANT_ORDER", "RunKey", "ExperimentRunner",
           "SweepProgress", "default_scale", "execute_run",
           "fold_shard_metrics"]

_LOG = get_logger("harness.sweep")

#: The recorder variants every recorded execution carries.
VARIANTS: dict[str, RecorderConfig] = {
    "base_4k": RecorderConfig(mode=RecorderMode.BASE,
                              max_interval_instructions=4096),
    "base_inf": RecorderConfig(mode=RecorderMode.BASE),
    "base_512": RecorderConfig(mode=RecorderMode.BASE,
                               max_interval_instructions=512),
    "opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                             max_interval_instructions=4096),
    "opt_inf": RecorderConfig(mode=RecorderMode.OPT),
    "opt_512": RecorderConfig(mode=RecorderMode.OPT,
                              max_interval_instructions=512),
}

#: Paper ordering: Base then Opt, 4K then INF (512 is reproduction-extra).
VARIANT_ORDER = ("base_4k", "base_inf", "opt_4k", "opt_inf")

#: Events a traced shard's ring buffer keeps (the newest ones).
TRACE_CAPACITY = 4096

#: Seconds of pool silence after which a sweep logs a heartbeat line.
HEARTBEAT_S = 30.0

#: The metrics each shard keeps in a sweep registry, as
#: ``sweep.shard.<label>.<last name part>``.
_SHARD_SUMMARY = ("machine.cycles", "machine.instructions",
                  "machine.mem_instructions", "bus.committed")


def default_scale() -> float:
    """Work scale for harness runs (``REPRO_SCALE`` env override)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def _baseline_factory(cls):
    return lambda core_id, config: cls(core_id, config.recorder,
                                       config.l1.line_bytes, seed=config.seed)


def baseline_factories_for(consistency: ConsistencyModel) -> dict | None:
    """The Section 5.2 baseline recorders applicable under ``consistency``."""
    if consistency is ConsistencyModel.SC:
        return {
            "sc_chunk": _baseline_factory(SCChunkRecorder),
            "fdr": _baseline_factory(FDRPointwiseRecorder),
        }
    if consistency is ConsistencyModel.TSO:
        return {
            "coreracer": _baseline_factory(CoreRacerRecorder),
            "rtr": _baseline_factory(RTRValueRecorder),
        }
    return None


@dataclass(frozen=True)
class RunKey:
    """Identity of one recorded execution (one sweep shard).

    The key doubles as the persistent cache identity, so it must reduce
    to the same canonical form in every interpreter run: ``to_dict``
    renders enums by *value* (never by salted ``hash()`` or
    ``id()``-bearing ``repr()``), and digesting goes through
    :func:`repro.common.hashing.stable_digest`, which sorts dict keys.
    """

    workload: str
    cores: int
    scale: float
    seed: int
    consistency: ConsistencyModel
    with_baselines: bool

    def to_dict(self) -> dict:
        """Canonical JSON-able form (wire + cache-key payload)."""
        return {
            "workload": self.workload,
            "cores": self.cores,
            "scale": self.scale,
            "seed": self.seed,
            "consistency": self.consistency.value,
            "with_baselines": self.with_baselines,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunKey":
        return RunKey(
            workload=data["workload"],
            cores=data["cores"],
            scale=data["scale"],
            seed=data["seed"],
            consistency=ConsistencyModel(data["consistency"]),
            with_baselines=data["with_baselines"],
        )

    def describe(self) -> str:
        """Short human-readable shard label for progress lines."""
        suffix = "+baselines" if self.with_baselines else ""
        return (f"{self.workload} x{self.cores} "
                f"{self.consistency.value}{suffix}")

    def label(self) -> str:
        """Deterministic metrics-key-safe shard label (unique per key):
        used to namespace per-shard metrics in sweep rollups."""
        suffix = "+b" if self.with_baselines else ""
        return (f"{self.workload}_x{self.cores}_{self.consistency.value}"
                f"_s{self.scale:g}_r{self.seed}{suffix}")


def execute_run(key: RunKey,
                variants: dict[str, RecorderConfig] | None = None,
                *, tracer=None) -> RunResult:
    """Record the execution ``key`` describes (the single shard body).

    This is the one place a sweep shard is turned into a
    :class:`~repro.sim.machine.RunResult`, in-process or in a pool
    worker, which is what makes every path produce identical results.
    ``tracer`` optionally attaches a bounded
    :class:`~repro.obs.tracer.Tracer`.
    """
    variants = VARIANTS if variants is None else variants
    program = build_workload(key.workload, num_threads=key.cores,
                             scale=key.scale, seed=key.seed)
    config = MachineConfig(num_cores=key.cores, consistency=key.consistency,
                           seed=key.seed)
    machine = Machine(config, variants)
    baseline_factories = (baseline_factories_for(key.consistency)
                          if key.with_baselines else None)
    return machine.run(program, baseline_factories=baseline_factories,
                       tracer=tracer)


def _record_shard(key: RunKey, variants: dict[str, RecorderConfig],
                  trace: bool) -> dict:
    """Record ``key``: the reply ``{result, wall_seconds}``, plus the
    retained trace events under ``trace`` when ``trace`` is set.

    A traced result drops its ``obs.trace.*`` metrics, so it and its
    cache entry stay byte-identical to an untraced run's.
    """
    started = time.perf_counter()
    tracer = Tracer(capacity=TRACE_CAPACITY) if trace else None
    result = execute_run(key, variants, tracer=tracer)
    reply = {"result": result}
    if tracer is not None:
        result.metrics = MetricsSnapshot(
            {name: value for name, value in result.metrics.values.items()
             if not name.startswith("obs.trace.")})
        reply["trace"] = [event_to_dict(event) for event in tracer.events()]
    reply["wall_seconds"] = time.perf_counter() - started
    return reply


def _execute_shard(payload: dict) -> dict:
    """Pool worker: record the shard a JSON-able ``payload`` names.

    The payload holds the run key, the attempt, the variant configs and
    whether to trace; the reply holds the attempt, the result in the wire
    form of :mod:`repro.sim.serialize`, its wall time and, when traced,
    the trace events.
    """
    from ..storage import config_from_dict
    variants = {name: config_from_dict(RecorderConfig, data)
                for name, data in payload["variants"].items()}
    reply = _record_shard(RunKey.from_dict(payload["key"]), variants,
                          payload["trace"])
    reply["result"] = reply["result"].to_dict()
    reply["attempt"] = payload["attempt"]
    return reply


def fold_shard_metrics(registry: MetricsRegistry, metrics: dict,
                       traces: dict) -> None:
    """Fold a sweep's shards into ``registry``.

    ``metrics`` maps each shard label to its result's metrics snapshot,
    ``traces`` each traced shard's label to its trace events.
    ``sweep.rollup.*`` merges every snapshot
    (:func:`~repro.obs.metrics.rollup_snapshots`) and
    ``sweep.shard.<label>.*`` keeps each shard's cycles, instructions,
    memory instructions, bus commits and trace-event count.
    """
    for name, value in rollup_snapshots(metrics).items():
        full = f"sweep.rollup.{name}"
        if isinstance(value, int) and not name.endswith((".min", ".max")):
            registry.counter(full).value = value
        else:
            registry.gauge(full).set(value)
    for label in sorted(metrics):
        snapshot = metrics[label]
        prefix = f"sweep.shard.{label}."
        for name in _SHARD_SUMMARY:
            if name in snapshot:
                registry.gauge(prefix + name.rsplit(".", 1)[-1]).set(
                    snapshot[name])
        registry.gauge(prefix + "trace_events").set(
            len(traces.get(label, ())))


class SweepProgress:
    """Progress/heartbeat/ETA lines for a sweep of known size.

    ``emit`` receives fully formatted lines; the runner routes them to
    the ``repro.harness.sweep`` structured logger.  ``clock`` is
    injectable for tests.
    """

    def __init__(self, total: int, *, jobs: int = 1, emit=None,
                 heartbeat_s: float = 30.0, clock=None):
        self.total = total
        self.jobs = jobs
        self.done = 0
        self.cached = 0
        self.heartbeat_s = heartbeat_s
        self._emit = emit
        self._clock = clock if clock is not None else time.monotonic
        self._started = self._clock()
        self._last_line = self._started

    # --------------------------------------------------------------- events

    def shard_done(self, label: str, source: str,
                   wall_seconds: float = 0.0) -> str:
        """Record one finished shard; returns (and emits) its line."""
        self.done += 1
        if source == "cache":
            self.cached += 1
            detail = "cache hit"
        else:
            detail = f"recorded in {wall_seconds:.1f}s"
        line = (f"[sweep] {label}: {detail} "
                f"({self.done}/{self.total}{self._eta_suffix()})")
        self._line(line)
        return line

    def heartbeat(self, in_flight: int) -> str | None:
        """Emit a liveness line if ``heartbeat_s`` elapsed since the last
        line; returns it (or None when not due)."""
        now = self._clock()
        if now - self._last_line < self.heartbeat_s:
            return None
        line = (f"[sweep] heartbeat: {self.done}/{self.total} done, "
                f"{in_flight} in flight, "
                f"{now - self._started:.0f}s elapsed{self._eta_suffix()}")
        self._line(line)
        return line

    # ------------------------------------------------------------- plumbing

    def _eta_suffix(self) -> str:
        remaining = self.total - self.done
        executed = self.done - self.cached
        if remaining <= 0 or executed <= 0:
            return ""
        elapsed = self._clock() - self._started
        if elapsed <= 0:
            return ""
        # Rate from executed shards only; cache hits are ~free.
        per_shard = elapsed / executed
        eta = per_shard * remaining / max(1, self.jobs)
        return f", eta {eta:.0f}s"

    def _line(self, line: str) -> None:
        self._last_line = self._clock()
        if self._emit is not None:
            self._emit(line)


class ExperimentRunner:
    """Memoizing, caching front-end over :class:`~repro.sim.machine.Machine`.

    ``cache_dir``/``cache_backend`` open the persistent result cache (a
    malformed spec or an unusable cache file raises
    :class:`~repro.harness.cachestore.CacheBackendError`); ``jobs`` is a
    sweep's pool width (None: the CPU count), ``timeout_s`` a pool
    shard's wall-clock budget and ``retries`` the extra attempts a failed
    shard gets.  With the defaults the runner records serially, in
    memory only.
    """

    def __init__(self, *, seed: int = 1, scale: float | None = None,
                 workloads: tuple[str, ...] | None = None,
                 jobs: int | None = 1, cache_dir: str | None = None,
                 cache_backend: str | None = None,
                 variants: dict[str, RecorderConfig] | None = None,
                 timeout_s: float | None = None, retries: int = 1):
        self.seed = seed
        self.scale = default_scale() if scale is None else scale
        self._workloads = tuple(workloads) if workloads else WORKLOAD_NAMES
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.variants = VARIANTS if variants is None else dict(variants)
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.cache = None
        if cache_backend is not None or cache_dir is not None:
            from .parallel_runner import ResultCache
            self.cache = (ResultCache.from_spec(cache_backend)
                          if cache_backend is not None
                          else ResultCache(cache_dir))
        self._memo: dict[RunKey, RunResult] = {}
        self._sweep_registry = None
        #: The last :meth:`prefetch`'s trace events (empty unless it
        #: traced), grouped in shard-label order.
        self.trace_events: list[dict] = []

    @property
    def workloads(self) -> tuple[str, ...]:
        return self._workloads

    def run_key(self, workload: str, *, cores: int = 8,
                consistency: ConsistencyModel = ConsistencyModel.RC,
                with_baselines: bool = False) -> RunKey:
        """The :class:`RunKey` a :meth:`record` call with these arguments
        resolves to (used to enumerate sweep grids for prefetching)."""
        return RunKey(workload, cores, self.scale, self.seed, consistency,
                      with_baselines)

    def record(self, workload: str, *, cores: int = 8,
               consistency: ConsistencyModel = ConsistencyModel.RC,
               with_baselines: bool = False) -> RunResult:
        """Record ``workload`` once (memoized, cached) with all recorder
        variants, in this process."""
        return self.result(self.run_key(workload, cores=cores,
                                         consistency=consistency,
                                         with_baselines=with_baselines))

    def result(self, key: RunKey) -> RunResult:
        """The result of ``key``: memo, cache, or an in-process recording."""
        result = self._memo.get(key)
        if result is None:
            self._collect([key])
            result = self._memo[key]
        return result

    def prefetch(self, keys, *, trace: bool = False) -> int:
        """Memoize every :class:`RunKey` in ``keys``, recording the ones
        neither memoized nor cached across ``jobs`` workers (in-process at
        ``jobs=1``); returns how many it recorded.

        The sweep's metrics become :meth:`sweep_metrics`; with ``trace``,
        each recorded shard carries a bounded trace buffer whose events
        become :attr:`trace_events`.
        """
        missing = [key for key in dict.fromkeys(keys)
                   if key not in self._memo]
        if not missing:
            return 0
        registry = self._sweep_registry = MetricsRegistry()
        sweep = registry.scoped("sweep")
        sweep.counter("shards_total").inc(len(missing))
        sweep.gauge("jobs").set(self.jobs)
        started = time.perf_counter()
        progress = SweepProgress(len(missing), jobs=self.jobs,
                                 emit=_LOG.info, heartbeat_s=HEARTBEAT_S)

        def on_retry(key: RunKey, attempt: int, reason: str) -> None:
            sweep.counter("retried").inc()
            _LOG.info(f"[sweep] {key.describe()}: {reason}; retrying")

        recorded = self._collect(
            missing, jobs=self.jobs, trace=trace, progress=progress,
            on_retry=on_retry,
            on_timeout=lambda key, attempt: sweep.counter("timeouts").inc(),
            observe_seconds=lambda seconds:
                sweep.distribution("shard_seconds").observe(seconds),
            heartbeat=progress.heartbeat, heartbeat_s=HEARTBEAT_S)

        sweep.counter("cache_hits").inc(len(missing) - len(recorded))
        for key in recorded:
            result = self._memo[key]
            registry.inc_counters({
                "instructions": result.total_instructions,
                "mem_instructions": result.total_mem_instructions,
                "cycles": result.cycles,
                "bus_transactions": result.bus_transactions,
            }, prefix="sweep.worker")
        if recorded:
            sweep.counter("shards_run").inc(len(recorded))
        if self.cache is not None:
            registry.set_counters(self.cache.counters(),
                                  prefix="sweep.cache")
        sweep.counter("executed").value = len(recorded)
        sweep.gauge("wall_seconds").set(time.perf_counter() - started)
        by_label = {key.label(): events for key, events in recorded.items()
                    if events is not None}
        fold_shard_metrics(
            registry, {key.label(): self._memo[key].metrics or {}
                       for key in missing}, by_label)
        self.trace_events = [event for label in sorted(by_label)
                             for event in by_label[label]]
        return len(recorded)

    def sweep_metrics(self):
        """Metrics snapshot of the last :meth:`prefetch` sweep (or None);
        a sweep that raised keeps what it counted."""
        if self._sweep_registry is None:
            return None
        return self._sweep_registry.snapshot()

    def _collect(self, keys: list[RunKey], *, jobs: int = 1,
                 trace: bool = False, progress: SweepProgress | None = None,
                 **callbacks) -> dict[RunKey, list | None]:
        """The one path into the memo for ``keys`` (distinct, none of
        them memoized yet).

        Each key comes from the cache, or else is recorded and put in the
        cache as it lands: in-process at ``jobs=1``, otherwise through
        one :meth:`~repro.harness.parallel_runner.ShardPool.map` whose
        other ``callbacks`` this passes on.  ``progress`` gets a line per
        shard.  Returns each recorded key's trace events (None untraced).
        """
        from .parallel_runner import ShardPool
        pending = []
        for key in keys:
            result = (self.cache.get(key, self.variants)
                      if self.cache is not None else None)
            if result is None:
                pending.append(key)
                continue
            self._memo[key] = result
            if progress is not None:
                progress.shard_done(key.describe(), "cache")
        recorded: dict[RunKey, list | None] = {}
        if not pending:
            return recorded

        def landed(index: int, key: RunKey, reply: dict) -> None:
            result = entry = reply["result"]
            if jobs > 1:
                # A worker's wire form is split once: the cache stores the
                # split and the memo reads it back, decoding on first read.
                entry = split_run_result(result)
                result = RunResult.from_dict(*entry)
            self._memo[key] = result
            recorded[key] = reply.get("trace")
            wall = reply["wall_seconds"]
            if self.cache is not None:
                self.cache.put(key, entry, self.variants,
                               meta={"wall_seconds": wall})
            if progress is not None:
                progress.shard_done(key.describe(), "run", wall)

        if jobs > 1:
            from ..storage import config_to_dict
            variants = {name: config_to_dict(config)
                        for name, config in self.variants.items()}
            worker = _execute_shard
            payload = lambda key, attempt: {     # noqa: E731
                "key": key.to_dict(), "attempt": attempt,
                "variants": variants, "trace": trace}
        else:
            worker = lambda key: _record_shard(  # noqa: E731
                key, self.variants, trace)
            payload = lambda key, attempt: key   # noqa: E731
        ShardPool(jobs=jobs, worker=worker, timeout_s=self.timeout_s,
                  retries=self.retries).map(
            pending, payload=payload, describe=RunKey.describe,
            on_complete=landed, **callbacks)
        return recorded
