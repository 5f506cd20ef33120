"""Cross-process telemetry for sweep-scale runs.

The parallel sweep runner (:mod:`repro.harness.parallel_runner`) executes
each shard in a worker process.  Every worker already returns its
:class:`~repro.sim.machine.RunResult` in the JSON wire format of
:mod:`repro.sim.serialize` — which includes the run's full flat
:class:`~repro.obs.metrics.MetricsSnapshot` — and can optionally attach a
bounded :class:`~repro.obs.tracer.Tracer` ring buffer whose retained
events travel back in a separate ``telemetry`` payload.

This module is the parent-process side of that pipeline:

* :class:`TelemetryConfig` — what workers should capture (trace ring
  buffers are opt-in; metrics are always on because they ride in the
  result itself and cost nothing extra).
* :class:`TelemetryAggregator` — validates and ingests each shard's
  metrics and trace payload; anything malformed is *quarantined* (kept
  aside with a reason, never raised) so one corrupt worker reply cannot
  crash a thousand-shard sweep.  Ingested shards merge into per-shard
  summaries and a deterministic whole-sweep rollup: iteration is over
  sorted shard labels, so the merged metrics are identical no matter in
  which order shards completed — the serial and the parallel sweep paths
  produce the same merged snapshot.
* :class:`SweepProgress` — live progress lines with completion counts,
  percentage, ETA and periodic heartbeats for long sweeps.

Rollup rules are keyed on the snapshot-name suffix conventions of
:mod:`repro.obs.metrics`: ``.count`` and plain integer metrics sum,
``.min``/``.max`` take the extreme, ``.mean`` is count-weighted via its
sibling ``.count`` key, other floats average, and order-sensitive keys
(``.stddev``, percentiles) are dropped rather than merged wrongly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .metrics import MetricsRegistry, MetricsSnapshot

__all__ = ["TELEMETRY_FORMAT", "TelemetryConfig", "ShardTelemetry",
           "TelemetryAggregator", "SweepProgress"]

#: Version stamp of the worker telemetry payload; replies carrying any
#: other value are quarantined (a worker from a different code version).
TELEMETRY_FORMAT = 1

#: Snapshot-key suffixes whose values cannot be merged across processes
#: (order-sensitive or non-additive); dropped from rollups.
_DROPPED_SUFFIXES = (".stddev", ".p50", ".p95", ".p99")


@dataclass(frozen=True)
class TelemetryConfig:
    """What sweep workers capture beyond the result itself.

    Metrics snapshots always travel back (inside the serialized result);
    ``capture_trace`` additionally attaches a bounded
    :class:`~repro.obs.tracer.Tracer` to each worker run and ships the
    retained ring buffer home.  Trace accounting is carried in the
    telemetry payload — the ``RunResult`` a traced worker returns stays
    byte-identical to an untraced run.
    """

    capture_trace: bool = False
    trace_capacity: int = 4096
    heartbeat_s: float = 30.0

    def to_dict(self) -> dict:
        """Wire form attached to each worker payload."""
        return {"format": TELEMETRY_FORMAT,
                "capture_trace": self.capture_trace,
                "trace_capacity": self.trace_capacity}

    @staticmethod
    def from_dict(data: dict) -> "TelemetryConfig":
        """Rebuild from :meth:`to_dict` output (worker side)."""
        return TelemetryConfig(
            capture_trace=bool(data.get("capture_trace", False)),
            trace_capacity=int(data.get("trace_capacity", 4096)))


@dataclass
class ShardTelemetry:
    """One shard's ingested telemetry (post-validation)."""

    label: str
    source: str                       # "run" | "cache"
    metrics: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)   # event dicts, oldest first
    trace_stats: dict = field(default_factory=dict)


def _valid_metrics(metrics) -> bool:
    if not isinstance(metrics, dict):
        return False
    for name, value in metrics.items():
        if not isinstance(name, str):
            return False
        if not isinstance(value, (int, float, str)) or isinstance(value, bool):
            return False
    return True


def _valid_trace(trace) -> bool:
    return (isinstance(trace, list)
            and all(isinstance(event, dict) and "name" in event
                    and "cycle" in event for event in trace))


class TelemetryAggregator:
    """Merges per-shard telemetry into sweep-level rollups.

    ``ingest`` never raises on malformed input: bad metrics or a bad
    trace payload are quarantined with a reason and the shard keeps
    whatever part validated.  All derived views iterate shards in sorted
    label order, making every rollup deterministic and independent of
    shard completion order.
    """

    def __init__(self):
        self._shards: dict[str, ShardTelemetry] = {}
        #: ``(label, reason)`` pairs for every rejected payload piece.
        self.quarantined: list[tuple[str, str]] = []

    # ------------------------------------------------------------ ingestion

    def ingest(self, label: str, *, metrics=None, payload=None,
               source: str = "run") -> bool:
        """Ingest one shard's telemetry; returns False if anything was
        quarantined.

        ``metrics`` is the shard result's flat snapshot (dict or
        :class:`MetricsSnapshot`); ``payload`` is the optional worker
        ``telemetry`` reply field carrying the trace ring buffer.
        """
        shard = ShardTelemetry(label=label, source=source)
        clean = True
        if isinstance(metrics, MetricsSnapshot):
            metrics = metrics.to_dict()
        if metrics is not None:
            if _valid_metrics(metrics):
                shard.metrics = dict(metrics)
            else:
                self.quarantined.append((label, "malformed metrics snapshot"))
                clean = False
        if payload is not None:
            clean &= self._ingest_payload(shard, payload)
        self._shards[label] = shard
        return clean

    def _ingest_payload(self, shard: ShardTelemetry, payload) -> bool:
        label = shard.label
        if not isinstance(payload, dict):
            self.quarantined.append(
                (label, f"telemetry payload is {type(payload).__name__}, "
                        f"not dict"))
            return False
        if payload.get("format") != TELEMETRY_FORMAT:
            self.quarantined.append(
                (label, f"telemetry format {payload.get('format')!r}, "
                        f"expected {TELEMETRY_FORMAT}"))
            return False
        clean = True
        trace = payload.get("trace")
        if trace is not None:
            if _valid_trace(trace):
                shard.trace = list(trace)
            else:
                self.quarantined.append((label, "malformed trace buffer"))
                clean = False
        trace_stats = payload.get("trace_stats")
        if trace_stats is not None:
            if _valid_metrics(trace_stats):
                shard.trace_stats = dict(trace_stats)
            else:
                self.quarantined.append((label, "malformed trace stats"))
                clean = False
        return clean

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._shards)

    def labels(self) -> list[str]:
        """Ingested shard labels, sorted (the canonical merge order)."""
        return sorted(self._shards)

    def shard(self, label: str) -> ShardTelemetry:
        """One shard's ingested telemetry."""
        return self._shards[label]

    def trace_events(self) -> list[dict]:
        """All shipped trace events, grouped by shard label order."""
        out: list[dict] = []
        for label in self.labels():
            out.extend(self._shards[label].trace)
        return out

    # -------------------------------------------------------------- rollups

    def per_shard_summary(self) -> dict[str, dict]:
        """A small fixed summary per shard (cycles, instructions, traffic)."""
        keys = ("machine.cycles", "machine.instructions",
                "machine.mem_instructions", "bus.committed")
        out: dict[str, dict] = {}
        for label in self.labels():
            metrics = self._shards[label].metrics
            out[label] = {key.rsplit(".", 1)[-1]: metrics[key]
                          for key in keys if key in metrics}
            out[label]["trace_events"] = len(self._shards[label].trace)
        return out

    def rollup(self) -> dict:
        """Whole-sweep merged metrics (deterministic, order-independent)."""
        sums: dict[str, int | float] = {}
        mins: dict[str, float] = {}
        maxs: dict[str, float] = {}
        means: dict[str, list[tuple[float, float]]] = {}
        float_totals: dict[str, float] = {}
        float_counts: dict[str, int] = {}
        for label in self.labels():
            metrics = self._shards[label].metrics
            for name, value in metrics.items():
                if name.endswith(_DROPPED_SUFFIXES) or isinstance(value, str):
                    continue
                if name.endswith(".count"):
                    sums[name] = sums.get(name, 0) + value
                elif name.endswith(".min"):
                    mins[name] = min(mins.get(name, value), value)
                elif name.endswith(".max"):
                    maxs[name] = max(maxs.get(name, value), value)
                elif name.endswith(".mean"):
                    weight = metrics.get(name[:-len(".mean")] + ".count", 1)
                    means.setdefault(name, []).append((value, weight))
                elif isinstance(value, int):
                    sums[name] = sums.get(name, 0) + value
                else:
                    float_totals[name] = float_totals.get(name, 0.0) + value
                    float_counts[name] = float_counts.get(name, 0) + 1
        out: dict = {}
        out.update(sums)
        out.update(mins)
        out.update(maxs)
        for name, observations in means.items():
            total_weight = sum(weight for _, weight in observations)
            if total_weight > 0:
                out[name] = (sum(value * weight
                                 for value, weight in observations)
                             / total_weight)
            else:
                out[name] = (sum(value for value, _ in observations)
                             / len(observations))
        for name, total in float_totals.items():
            out[name] = total / float_counts[name]
        return dict(sorted(out.items()))

    def merge_into(self, registry: MetricsRegistry,
                   *, prefix: str = "sweep") -> None:
        """Fold the rollup and per-shard summaries into ``registry``.

        This is what makes ``--metrics-out`` from a parallel sweep match a
        serial sweep: the merged keys are computed from sorted shard
        labels, never from completion order.
        """
        scope = registry.scoped(prefix)
        scope.counter("telemetry.shards").value = len(self._shards)
        scope.counter("telemetry.quarantined").value = len(self.quarantined)
        trace_total = sum(len(shard.trace)
                          for shard in self._shards.values())
        scope.counter("telemetry.trace_events").value = trace_total
        for name, value in self.rollup().items():
            full = f"{prefix}.rollup.{name}"
            if isinstance(value, int) and not name.endswith((".min", ".max")):
                registry.counter(full).value = value
            else:
                registry.gauge(full).set(value)
        for label, summary in self.per_shard_summary().items():
            for key, value in summary.items():
                registry.gauge(f"{prefix}.shard.{label}.{key}").set(value)


class SweepProgress:
    """Progress/heartbeat/ETA lines for a sweep of known size.

    ``emit`` receives fully formatted lines; the runner routes them to its
    progress callback or the structured logger.  ``clock`` is injectable
    for tests.
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
