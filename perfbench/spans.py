"""In-memory spans for the benchmark's traced run.

A traced run wraps each public call into a layer of ``repro`` in a span
that records its name, start, end, parent span and op id.  The wrappers
are installed from this file around the calls (``instrumented``); nothing
inside the program changes.  Spans stay in memory and are written once,
at exit, as Chrome trace events (the JSON array ``repro.obs`` exports).

Layer metrics come from span *self* times: a span's duration minus the
time its child spans cover.  Every op is serial, so the self times of
one op add up to the op's duration, and a layer's speed-up can raise a
workload's throughput by at most that layer's self-time share.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

__all__ = ["Span", "SpanRecorder", "NullRecorder", "instrumented",
           "layer_metrics"]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans; ``op`` names the op (or set-up pass) now running.

    ``profile`` asks the ``Machine.run`` wrapper to attach a
    :class:`~repro.obs.profiler.KernelProfiler` and to add its host split
    as child spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = "setup-0"
        self.profile = False

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent,
                    self.op, attrs)
        self.spans.append(span)
        self._stack.append(span.sid)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def synthetic(self, name: str, start: float, duration: float,
                  **attrs) -> None:
        """A child of the open span measured by someone else (the kernel
        profiler's host split); laid end to end from ``start``."""
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, start, parent, self.op, attrs)
        span.end = start + duration
        self.spans.append(span)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [span.duration - covered[span.sid] for span in self.spans]

    def chrome_events(self, context: dict) -> list[dict]:
        """Chrome trace events: one complete ("X") event per span, in
        microseconds from the first span, one track per phase."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [{"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                   "args": {"name": "perfbench", **context}}]
        for span in self.spans:
            events.append({
                "ph": "X", "name": span.name, "cat": span.op.split("-")[0],
                "pid": 1, "tid": 0,
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {"op": span.op, "id": span.sid,
                         "parent": span.parent, **span.attrs},
            })
        return events

    def write(self, path, context: dict) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_events(context), handle)


class NullRecorder:
    """The untraced run's recorder: it records nothing."""

    op = "setup-0"
    profile = False


# ------------------------------------------------------------ wrappers

def _spanned(rec, name, fn, attrs_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            out = fn(*args, **kwargs)
            if attrs_of is not None:
                span.attrs.update(attrs_of(args, out))
            return out
    return wrapper


#: KernelProfiler host component -> layer span name.
_HOST_SPLIT = (("cores.step", "cpu.step"), ("bus.tick", "mem.tick"),
               ("sampler.catch_up", "sim.sampler"),
               ("kernel.scheduler", "sim.scheduler"))


def _machine_run(rec, original):
    from repro.obs.profiler import KernelProfiler

    @functools.wraps(original)
    def run(self, program, *args, **kwargs):
        with rec.span("sim.machine.run", program=program.name,
                      variants=len(self.recorder_configs)) as span:
            profiler = None
            if rec.profile and kwargs.get("profiler") is None:
                profiler = kwargs["profiler"] = KernelProfiler()
            result = original(self, program, *args, **kwargs)
            span.attrs["instructions"] = result.total_instructions
            if profiler is not None:
                cursor = span.start
                components = profiler.host_components()
                for component, name in _HOST_SPLIT:
                    rec.synthetic(name, cursor, components[component])
                    cursor += components[component]
            return result
    return run


def _traced_replayer(rec, base):
    class TracedReplayer(base):
        def __init__(self, *args, **kwargs):
            with rec.span("replay.patch"):
                super().__init__(*args, **kwargs)

        def replay(self, *args, **kwargs):
            with rec.span("replay.run") as span:
                out = super().replay(*args, **kwargs)
                span.attrs["instructions"] = sum(
                    context.instructions_executed for context in out[1])
                return out

    return TracedReplayer


@contextmanager
def instrumented(rec, *, profile: bool = False):
    """Wrap every public layer call in a span while the block runs.

    With ``profile``, every ``Machine.run`` in the block also reports
    its kernel's host split."""
    from repro import storage
    from repro.harness import figures, report, runner
    from repro.harness.parallel_runner import ResultCache
    from repro.isa.program import ThreadProgram
    from repro.replay import parallel
    from repro.sim import serialize
    from repro.sim.machine import Machine, RunResult

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(owner, attr, name, attrs_of=None):
        patch(owner, attr, _spanned(rec, name, getattr(owner, attr),
                                    attrs_of))

    encoded_bits = lambda args, out: {"bits": out[1]}      # noqa: E731
    decoded_bits = lambda args, out: {"bits": args[1]}     # noqa: E731
    wrap(runner, "build_workload", "workloads.build")
    wrap(ThreadProgram, "validate", "isa.validate")
    patch(Machine, "run", _machine_run(rec, Machine.run))
    for module in (storage, serialize):
        wrap(module, "encode_log", "recorder.logfmt.encode", encoded_bits)
        wrap(module, "decode_log", "recorder.logfmt.decode", decoded_bits)
    wrap(storage, "save_recording", "storage.save")
    wrap(storage, "load_recording", "storage.load")
    wrap(storage, "program_from_dict", "storage.program_from_dict")
    wrap(storage.StoredRecording, "log_entries", "storage.log_entries")
    wrap(storage.StoredRecording, "replay", "storage.replay")
    patch(storage, "Replayer", _traced_replayer(rec, storage.Replayer))
    wrap(parallel, "parallel_replay_recording", "replay.parallel",
         lambda args, out: {"instructions": args[0].total_instructions})
    wrap(RunResult, "to_dict", "sim.serialize.to_dict")
    patch(RunResult, "from_dict", staticmethod(_spanned(
        rec, "sim.serialize.from_dict", RunResult.from_dict)))
    wrap(ResultCache, "put", "harness.cache_put")
    wrap(ResultCache, "get", "harness.cache_get")
    for attr in ("fig1_ooo_fractions", "fig9_reordered_fractions",
                 "fig10_inorder_blocks", "fig11_log_sizes",
                 "fig12_traq_utilization"):
        wrap(figures, attr, "harness.figures")
    wrap(report, "render_all", "harness.report")
    rec.profile = profile
    try:
        yield
    finally:
        rec.profile = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------- metrics

#: Which phase a layer metric is read from: the timed ops when the op
#: makes the call, else the set-up, else the ladder of the traced run.
PHASES = ("op", "setup", "ladder")

#: Self seconds per op (or per set-up pass), median over ops.
SECONDS = {
    "bench.import_s": "bench.import",
    "workloads.build_s": "workloads.build",
    "isa.validate_s": "isa.validate",
    "cpu.step_s": "cpu.step",
    "mem.tick_s": "mem.tick",
    "sim.sampler_s": "sim.sampler",
    "sim.scheduler_s": "sim.scheduler",
    "storage.save_s": "storage.save",
    "storage.load_s": "storage.load",
    "replay.patch_s": "replay.patch",
    # StoredRecording.replay's self time: everything it does besides
    # reading, decoding, patching and running the log, i.e. the
    # memory/register verification and the cost model.
    "replay.verify_s": "storage.replay",
    "harness.figures_s": "harness.figures",
    "harness.report_s": "harness.report",
}

#: Self milliseconds per call, median over calls.
MILLISECONDS = {
    "harness.cache_put_ms": "harness.cache_put",
    "sim.serialize.to_dict_ms": "sim.serialize.to_dict",
    "harness.cache_get_ms": "harness.cache_get",
    "sim.serialize.from_dict_ms": "sim.serialize.from_dict",
    "storage.program_from_dict_ms": "storage.program_from_dict",
}

#: Work per second of the span's whole duration: (span, attr, divisor).
RATES = {
    "recorder.logfmt.encode_mbit_per_s":
        ("recorder.logfmt.encode", "bits", 1e6),
    "recorder.logfmt.decode_mbit_per_s":
        ("recorder.logfmt.decode", "bits", 1e6),
    "replay.run_kinstr_per_s": ("replay.run", "instructions", 1e3),
    "replay.parallel_kinstr_per_s":
        ("replay.parallel", "instructions", 1e3),
}


def _phase_spans(rec, name) -> list[Span]:
    for phase in PHASES:
        chosen = [span for span in rec.spans
                  if span.name == name and span.op.split("-")[0] == phase]
        if chosen:
            return chosen
    return []


def layer_metrics(rec, kernels, to_reference) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; a metric whose span
    never ran is left out (the caller reports it as missing).  Times
    pass through ``to_reference`` (host seconds to reference seconds,
    see calibrate.py)."""
    self_times = [to_reference(seconds) for seconds in rec.self_times()]
    out: dict[str, float] = {}
    for metric, name in SECONDS.items():
        per_op: dict[str, float] = {}
        for span in _phase_spans(rec, name):
            per_op[span.op] = per_op.get(span.op, 0.0) + self_times[span.sid]
        if per_op:
            out[metric] = statistics.median(per_op.values())
    for metric, name in MILLISECONDS.items():
        calls = [self_times[span.sid] for span in _phase_spans(rec, name)]
        if calls:
            out[metric] = 1e3 * statistics.median(calls)
    rates = dict(RATES)
    for kernel in kernels:
        rates[f"sim.{kernel}.kinstr_per_s"] = (
            f"sim.{kernel}.run", "instructions", 1e3)
    for metric, (name, attr, divisor) in rates.items():
        spans = _phase_spans(rec, name)
        seconds = to_reference(sum(span.duration for span in spans))
        if spans and seconds > 0:
            work = sum(span.attrs[attr] for span in spans)
            out[metric] = work / divisor / seconds
    return out
