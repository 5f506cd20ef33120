"""``repro.obs`` — the unified observability layer.

Three pillars, all zero-cost when disabled:

* **Trace bus** (:mod:`.tracer`, :mod:`.events`): a bounded ring buffer of
  typed event records emitted from hook points in the core, the caches,
  the coherence bus, the TRAQ, the recorder and the replayer, with
  category/severity filtering and exporters (:mod:`.exporters`) to JSONL
  and the Chrome trace-event format (Perfetto-loadable).
* **Metrics registry** (:mod:`.metrics`): named counters, gauges and
  distribution metrics collected into flat :class:`MetricsSnapshot`
  dicts with before/after ``diff`` support.
* **Divergence forensics** (:mod:`.forensics`): when replay verification
  fails, a :class:`DivergenceReport` names the culprit core, chunk and
  address and quotes the trace bus's recent history.

Sweep-scale additions (see ``docs/internals.md``):

* **Sweep rollups** (:func:`rollup_snapshots`): many runs' metrics
  snapshots merged by key-suffix rules in label order, which is how a
  sweep's ``sweep.rollup.*`` metrics are computed.
* **Cycle-attribution profiler** (:mod:`.profiler`): a
  :class:`KernelProfiler` attributing simulated cycles (busy vs stall
  reasons) and host wall time (per-component) for one machine run.
* **Perf observatory** (:mod:`.perfdb`): append-only JSONL bench history
  with rolling-baseline regression detection.
* **Structured logging** (:mod:`.logging`): key=value log lines shared
  by the harness and the ``repro.tools`` CLI.
* **Time-travel inspection** (:mod:`.inspect`, :mod:`.causality`): replay
  checkpoints every N chunks with restore-and-run-forward state queries
  (:class:`ReplayInspector`), and the happens-before
  :class:`CausalityGraph` over recorded chunks with ancestor/slice
  queries — the engine behind ``repro.tools inspect`` and the
  checkpoint/causal-cone fields of :class:`DivergenceReport` — and the
  :class:`LogSummary` of a variant's logs that ``inspect DIR`` prints.
"""

from .causality import CausalityGraph, HBSlice
from .coverage import coverage_signals
from .events import (
    CacheEvictEvent,
    CacheMissEvent,
    Category,
    CheckpointEvent,
    ChunkCutEvent,
    CoherenceEvent,
    DivergenceEvent,
    InstrCountEvent,
    InstrPerformEvent,
    ReplayStepEvent,
    Severity,
    TraceEvent,
    TraqDequeueEvent,
    TraqEnqueueEvent,
    WriteBufferDrainEvent,
)
from .exporters import (
    chrome_trace_events,
    event_to_dict,
    export_chrome_trace,
    export_jsonl,
)
from .forensics import DivergenceReport, build_report, raise_divergence
from .inspect import (
    AccessLog,
    CheckpointStore,
    LogSummary,
    MemoryAccess,
    ReplayCheckpoint,
    ReplayInspector,
    StateView,
)
from .logging import (
    get_logger,
    kv_line,
    log_kv,
    setup_logging,
)
from .metrics import (
    Counter,
    DistributionMetric,
    Gauge,
    MetricsRegistry,
    MetricsSnapshot,
    rollup_snapshots,
)
from .perfdb import (
    PerfRecord,
    PerfReport,
    RegressionCheck,
    append_records,
    load_history,
    records_from_bench_report,
    regression_report,
)
from .profiler import KernelProfiler, profile_to_chrome, render_profile
from .tracer import Tracer

__all__ = [
    "Category",
    "Severity",
    "TraceEvent",
    "InstrPerformEvent",
    "InstrCountEvent",
    "CacheMissEvent",
    "CacheEvictEvent",
    "CoherenceEvent",
    "WriteBufferDrainEvent",
    "TraqEnqueueEvent",
    "TraqDequeueEvent",
    "ChunkCutEvent",
    "ReplayStepEvent",
    "CheckpointEvent",
    "DivergenceEvent",
    "Tracer",
    "Counter",
    "Gauge",
    "DistributionMetric",
    "MetricsRegistry",
    "MetricsSnapshot",
    "rollup_snapshots",
    "event_to_dict",
    "export_jsonl",
    "chrome_trace_events",
    "export_chrome_trace",
    "DivergenceReport",
    "build_report",
    "raise_divergence",
    "CausalityGraph",
    "HBSlice",
    "coverage_signals",
    "ReplayCheckpoint",
    "CheckpointStore",
    "MemoryAccess",
    "AccessLog",
    "StateView",
    "ReplayInspector",
    "LogSummary",
    "KernelProfiler",
    "render_profile",
    "profile_to_chrome",
    "PerfRecord",
    "RegressionCheck",
    "PerfReport",
    "append_records",
    "load_history",
    "records_from_bench_report",
    "regression_report",
    "setup_logging",
    "get_logger",
    "log_kv",
    "kv_line",
]
