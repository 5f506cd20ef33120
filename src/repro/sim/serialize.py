"""JSON round-tripping for run results (the sweep worker protocol).

The parallel experiment runner executes :meth:`Machine.run` in worker
processes and persists every shard in an on-disk cache, so everything a
:class:`~repro.sim.machine.RunResult` carries must survive a trip through
plain JSON: program, machine config, per-core facts (including the
streaming :class:`~repro.common.stats.OnlineStats` /
:class:`~repro.common.stats.Histogram` accumulators), the bit-exact
interval logs of every recorder variant (stored base64 via
:mod:`repro.recorder.logfmt`'s encoder, so the encoded size *is* the
hardware log size), recorder stats, dependence edges, baseline log
summaries and the flat metrics snapshot.

``from_dict(to_dict(result))`` reconstructs an equal result: the figure
code renders byte-identical tables from either object.  Live baseline
recorder *objects* do not cross the boundary — only the
``log_bits``/``instructions_counted`` counters the figures consume; they
come back as lightweight :class:`BaselineSummary` stand-ins.

The result cache stores the *cache form* (:func:`split_run_result`),
split by reader: a header with what the figure tables read (each
variant's stats merged over its cores) and one digest-checked payload
with the rest (the program, the per-core outputs and final state, the
logs), which decodes only when read.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from functools import cached_property, partial
from types import SimpleNamespace

from ..common.config import MachineConfig, RecorderConfig
from ..common.errors import LogFormatError
from ..common.stats import Histogram, OnlineStats
from ..obs.metrics import MetricsSnapshot
from ..recorder.logfmt import decode_log, encode_log
from ..recorder.mrr import RecorderStats
from ..recorder.ordering import IntervalEdge
from .machine import CoreResult, RecorderOutput, RunResult

__all__ = [
    "SERIALIZATION_VERSION",
    "BaselineSummary",
    "online_stats_to_dict", "online_stats_from_dict",
    "histogram_to_dict", "histogram_from_dict",
    "recorder_stats_to_dict", "recorder_stats_from_dict",
    "metrics_snapshot_to_dict", "metrics_snapshot_from_dict",
    "thread_context_to_dict", "thread_context_from_dict",
    "run_result_to_dict", "run_result_from_dict", "split_run_result",
    "DETAIL_FIELDS", "check_type", "check_keys", "check_int_rows",
    "int_map_from_dict",
]

#: Bumped whenever the wire format changes; part of the cache key salt.
#: v2: RecorderStats gained the fuzzer coverage counters
#: (signature_set_bits, signature_alias_terminations, snoop_observed).
SERIALIZATION_VERSION = 2


@dataclass(frozen=True)
class BaselineSummary:
    """What survives of a baseline recorder across the worker boundary."""

    log_bits: int
    instructions_counted: int


# ----------------------------------------------------------------- stats

def online_stats_to_dict(stats: OnlineStats) -> dict:
    """JSON-able form of a streaming accumulator."""
    out = {"count": stats.count, "total": stats.total}
    if stats.count:
        out.update(mean=stats._mean, m2=stats._m2,
                   min=stats.minimum, max=stats.maximum)
    return out


_NUMBER = (int, float)

#: The JSON types of an accumulator's keys; the moments are present when
#: ``count`` is nonzero.
_ONLINE_STATS_KEYS = {"count": (int,), "total": _NUMBER}
_MOMENT_KEYS = {"mean": _NUMBER, "m2": _NUMBER, "min": _NUMBER,
                "max": _NUMBER}


def online_stats_from_dict(data: dict, path: str = "stats") -> OnlineStats:
    """Rebuild an accumulator from :func:`online_stats_to_dict`; a missing
    or wrongly typed key raises :class:`LogFormatError` naming its path."""
    check_keys(data, _ONLINE_STATS_KEYS, path)
    stats = OnlineStats()
    stats.count = data["count"]
    stats.total = data["total"]
    if stats.count:
        check_keys(data, _MOMENT_KEYS, path)
        stats._mean = data["mean"]
        stats._m2 = data["m2"]
        stats.minimum = data["min"]
        stats.maximum = data["max"]
    return stats


def histogram_to_dict(histogram: Histogram) -> dict:
    """JSON-able form of a binned histogram."""
    return {"bin_width": histogram.bin_width,
            "samples": histogram.samples,
            "counts": {str(index): count
                       for index, count in sorted(histogram.counts.items())}}


_HISTOGRAM_KEYS = {"bin_width": (int,), "samples": (int,),
                   "counts": (dict,)}


def histogram_from_dict(data: dict, path: str = "histogram") -> Histogram:
    """Rebuild a histogram from :func:`histogram_to_dict`; a missing or
    wrongly typed key, a ``bin_width`` below 1 or a bad ``counts`` key or
    value raises :class:`LogFormatError` naming its path."""
    check_keys(data, _HISTOGRAM_KEYS, path)
    if data["bin_width"] < 1:
        raise LogFormatError(f"{path}.bin_width must be positive, got "
                             f"{data['bin_width']}")
    return Histogram(bin_width=data["bin_width"],
                     counts=int_map_from_dict(data["counts"],
                                              f"{path}.counts"),
                     samples=data["samples"])


def recorder_stats_to_dict(stats: RecorderStats) -> dict:
    """JSON-able form of per-variant recorder stats."""
    out = dict(stats.counters())
    out["entry_bits_by_type"] = dict(stats.entry_bits_by_type)
    out["conflict_lines"] = {str(line): count
                             for line, count in stats.conflict_lines.items()}
    return out


#: The JSON types of each key of serialized recorder stats.
_RECORDER_STATS_KEYS = {
    **{name: (int,) for name in RecorderStats.COUNTER_FIELDS},
    "entry_bits_by_type": (dict,),
    "conflict_lines": (dict,),
}


def recorder_stats_from_dict(data: dict, path: str = "stats") -> RecorderStats:
    """Rebuild recorder stats from :func:`recorder_stats_to_dict`; a
    missing or wrongly typed key, value or ``conflict_lines`` key raises
    :class:`LogFormatError` naming its path."""
    check_keys(data, _RECORDER_STATS_KEYS, path)
    stats = RecorderStats(**{name: data[name]
                             for name in RecorderStats.COUNTER_FIELDS})
    bits = data["entry_bits_by_type"]
    for kind, value in bits.items():
        if type(value) is not int:
            check_type(value, (int,),
                       f"{path}.entry_bits_by_type[{json.dumps(kind)}]")
    stats.entry_bits_by_type = dict(bits)
    stats.conflict_lines = int_map_from_dict(data["conflict_lines"],
                                             f"{path}.conflict_lines")
    return stats


def metrics_snapshot_to_dict(snapshot: MetricsSnapshot | None) -> dict | None:
    """JSON-able form of a metrics snapshot (None passes through)."""
    return None if snapshot is None else snapshot.to_dict()


def metrics_snapshot_from_dict(data: dict | None, path: str = "metrics"
                               ) -> MetricsSnapshot | None:
    """Rebuild a snapshot from :func:`metrics_snapshot_to_dict`; a value
    that is not a number raises :class:`LogFormatError` naming it."""
    if data is None:
        return None
    check_type(data, (dict,), path)
    for name, value in data.items():
        if type(value) not in _NUMBER:
            check_type(value, _NUMBER, f"{path}[{json.dumps(name)}]")
    return MetricsSnapshot.from_dict(data)


# -------------------------------------------------------- thread contexts

def thread_context_to_dict(context) -> dict:
    """JSON-able snapshot of a replay :class:`ThreadContext`.

    The full architectural state of one replayed thread — everything the
    replay-checkpoint machinery (:mod:`repro.obs.inspect`) must capture so
    a restored context is indistinguishable from one that ran straight
    through, including the load-value trace the verifier compares.
    """
    return {
        "core_id": context.core_id,
        "pc": context.pc,
        "regs": list(context.regs),
        "halted": context.halted,
        "instructions_executed": context.instructions_executed,
        "load_values": list(context.load_values),
    }


def thread_context_from_dict(data: dict, program):
    """Rebuild a :class:`ThreadContext` written by
    :func:`thread_context_to_dict` against ``program``'s thread code."""
    from ..replay.interpreter import ThreadContext

    context = ThreadContext(data["core_id"],
                            program.threads[data["core_id"]])
    context.pc = data["pc"]
    context.regs = list(data["regs"])
    context.halted = data["halted"]
    context.instructions_executed = data["instructions_executed"]
    context.load_values = list(data["load_values"])
    return context


# ------------------------------------------------------------ run results

def _core_result_to_dict(core: CoreResult) -> dict:
    return {
        "core_id": core.core_id,
        "instructions": core.instructions,
        "mem_instructions": core.mem_instructions,
        "loads": core.loads,
        "stores": core.stores,
        "rmws": core.rmws,
        "ooo_loads": core.ooo_loads,
        "ooo_stores": core.ooo_stores,
        "forwarded_loads": core.forwarded_loads,
        "traq_stall_cycles": core.traq_stall_cycles,
        "final_regs": list(core.final_regs),
        "traq_occupancy": online_stats_to_dict(core.traq_occupancy),
        "traq_histogram": histogram_to_dict(core.traq_histogram),
    }


def _core_result_from_dict(data: dict, path: str) -> CoreResult:
    for reg, value in enumerate(data["final_regs"]):
        if type(value) is not int:
            check_type(value, (int,), f"{path}.final_regs[{reg}]")
    return CoreResult(
        core_id=data["core_id"],
        instructions=data["instructions"],
        mem_instructions=data["mem_instructions"],
        loads=data["loads"],
        stores=data["stores"],
        rmws=data["rmws"],
        ooo_loads=data["ooo_loads"],
        ooo_stores=data["ooo_stores"],
        forwarded_loads=data["forwarded_loads"],
        traq_stall_cycles=data["traq_stall_cycles"],
        final_regs=list(data["final_regs"]),
        traq_occupancy=online_stats_from_dict(data["traq_occupancy"],
                                              f"{path}.traq_occupancy"),
        traq_histogram=histogram_from_dict(data["traq_histogram"],
                                           f"{path}.traq_histogram"),
    )


def _recorder_output_to_dict(output: RecorderOutput) -> dict:
    from ..storage import config_to_dict

    data, bits = encode_log(output.entries, output.config)
    return {
        "core_id": output.core_id,
        "config": config_to_dict(output.config),
        "log": base64.b64encode(data).decode("ascii"),
        "bit_length": bits,
        "stats": recorder_stats_to_dict(output.stats),
    }


def _decode_log(data, bit_length: int, config: RecorderConfig,
                path: str) -> list:
    """``decode_log``, with a malformed log's error naming ``path``."""
    try:
        return decode_log(data, bit_length, config)
    except LogFormatError as exc:
        raise LogFormatError(f"{path}: {exc}") from None


def _recorder_output_from_dict(data: dict, path: str,
                               log=None) -> RecorderOutput:
    """One per-core output.  ``log`` is the raw log of the cache form,
    which decodes on first read; without it the wire form's base64
    ``log`` decodes here."""
    from ..storage import config_from_dict

    config = config_from_dict(RecorderConfig, data["config"],
                              f"{path}.config")
    stats = recorder_stats_from_dict(data["stats"], f"{path}.stats")
    if log is None:
        try:
            log = base64.b64decode(data["log"])
        except binascii.Error as exc:
            raise LogFormatError(f"{path}.log is not base64: {exc}") from None
        entries = _decode_log(log, data["bit_length"], config, f"{path}.log")
    else:
        entries = partial(_decode_log, log, data["bit_length"], config,
                          f"{path}.log")
    return RecorderOutput(core_id=data["core_id"], config=config,
                          entries=entries, stats=stats)


def _baseline_to_dict(recorder) -> dict:
    stats = getattr(recorder, "stats", recorder)
    return {"log_bits": stats.log_bits,
            "instructions_counted": stats.instructions_counted,
            "chunked": hasattr(recorder, "stats")}


#: The JSON types of each key of one ``baselines.<name>`` entry.
_BASELINE_KEYS = {"log_bits": (int,), "instructions_counted": (int,),
                  "chunked": (bool,)}


def _baseline_from_dict(data: dict, path: str):
    check_keys(data, _BASELINE_KEYS, path)
    summary = BaselineSummary(log_bits=data["log_bits"],
                              instructions_counted=data["instructions_counted"])
    if data["chunked"]:
        # Chunk-style recorders expose their counters behind ``.stats``;
        # the figure code dispatches on that attribute, so preserve it.
        return SimpleNamespace(stats=summary)
    return summary


def _program_from_json(data):
    """The program of a cache payload: JSON text, then
    :func:`~repro.storage.program_from_dict`."""
    from ..storage import program_from_dict

    try:
        program = json.loads(bytes(data))
    except ValueError as exc:
        raise LogFormatError(f"program is not valid JSON: {exc}") from None
    return program_from_dict(program)


def run_result_to_dict(result: RunResult) -> dict:
    """Render a run result as one JSON-able dict (the worker wire format)."""
    from ..storage import config_to_dict, program_to_dict

    return {
        "serialization_version": SERIALIZATION_VERSION,
        "program": program_to_dict(result.program),
        "config": config_to_dict(result.config),
        "cycles": result.cycles,
        "cores": [_core_result_to_dict(core) for core in result.cores],
        "recordings": {
            name: [_recorder_output_to_dict(output) for output in outputs]
            for name, outputs in result.recordings.items()},
        "final_memory": {str(addr): value
                         for addr, value in result.final_memory.items()},
        "bus_transactions": result.bus_transactions,
        "load_trace": (None if result.load_trace is None else
                       [[list(event) for event in core]
                        for core in result.load_trace]),
        "baselines": {name: [_baseline_to_dict(recorder)
                             for recorder in per_core]
                      for name, per_core in result.baselines.items()},
        "dependence_edges": {
            name: [[e.src_core, e.src_cisn, e.dst_core, e.dst_cisn]
                   for e in edges]
            for name, edges in result.dependence_edges.items()},
        "metrics": metrics_snapshot_to_dict(result.metrics),
    }


#: The wire-form keys the cache form's header keeps as they are.
_HEADER_FIELDS = ("serialization_version", "config", "cycles", "cores",
                  "bus_transactions", "baselines", "metrics")

#: The :class:`RunResult` fields the cache form keeps in its detail part.
DETAIL_FIELDS = ("recordings", "final_memory", "load_trace",
                 "dependence_edges")


def split_run_result(data: dict) -> tuple[dict, bytes]:
    """Split a wire-form run result into its cache form, by reader.

    The returned header keeps what the figure tables read: the wire
    form's ``config``, ``cycles``, ``cores``, ``bus_transactions``,
    ``baselines`` and ``metrics``, and ``variants``, each variant's stats
    merged over its cores in core order (as
    :meth:`RunResult.recording_stats` merges them) beside its ``logs``.
    The returned payload holds the program's JSON text, then the *detail
    part* (JSON: ``recordings``, each per-core output without its log,
    and ``final_memory``, ``load_trace`` and ``dependence_edges``, as the
    wire form holds them), then each log's raw bytes; the header's
    ``program``, ``detail`` and each ``variants.<v>.logs[i]`` are
    ``[offset, length]`` references into it.
    ``run_result_from_dict(header, payload)`` reads it back.
    """
    payload = bytearray()

    def add(blob: bytes) -> list[int]:
        payload.extend(blob)
        return [len(payload) - len(blob), len(blob)]

    recordings = data["recordings"]
    header = {key: data[key] for key in _HEADER_FIELDS}
    header["program"] = add(json.dumps(data["program"]).encode())
    header["detail"] = add(json.dumps({
        "recordings": {
            name: [{key: value for key, value in output.items()
                    if key != "log"} for output in outputs]
            for name, outputs in recordings.items()},
        **{key: data[key] for key in DETAIL_FIELDS[1:]}}).encode())
    header["variants"] = {
        name: {"stats": recorder_stats_to_dict(RecorderStats.merged(
                   recorder_stats_from_dict(output["stats"])
                   for output in outputs)),
               "logs": [add(base64.b64decode(output["log"]))
                        for output in outputs]}
        for name, outputs in recordings.items()}
    return header, bytes(payload)


#: The JSON types each top-level key of a serialized run result holds.
_RUN_RESULT_KEYS = {
    "program": (dict,),
    "config": (dict,),
    "cycles": (int,),
    "cores": (list,),
    "recordings": (dict,),
    "final_memory": (dict,),
    "bus_transactions": (int,),
    "load_trace": (list, type(None)),
    "baselines": (dict,),
    "dependence_edges": (dict,),
    "metrics": (dict, type(None)),
}

#: The JSON types of each key of one ``cores`` entry.
_CORE_KEYS = {
    **{key: (int,) for key in (
        "core_id", "instructions", "mem_instructions", "loads", "stores",
        "rmws", "ooo_loads", "ooo_stores", "forwarded_loads",
        "traq_stall_cycles")},
    "final_regs": (list,),
    "traq_occupancy": (dict,),
    "traq_histogram": (dict,),
}

#: The JSON types of each key of one ``recordings.<variant>`` entry.
_RECORDING_KEYS = {
    "core_id": (int,),
    "config": (dict,),
    "log": (str,),
    "bit_length": (int,),
    "stats": (dict,),
}

#: The JSON types of each key of a cache-form header, whose ``program``
#: and ``detail`` are references into the payload.
_HEADER_KEYS = {**{key: _RUN_RESULT_KEYS[key] for key in _HEADER_FIELDS[1:]},
                "program": (list,), "detail": (list,), "variants": (dict,)}

#: The JSON types of each key of one header ``variants.<variant>``.
_VARIANT_KEYS = {"stats": (dict,), "logs": (list,)}

#: The JSON types of each key of the detail part, and of one of its
#: per-core outputs.
_DETAIL_KEYS = {key: _RUN_RESULT_KEYS[key] for key in DETAIL_FIELDS}
_DETAIL_RECORDING_KEYS = {key: types for key, types in _RECORDING_KEYS.items()
                          if key != "log"}

_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string",
                    int: "an integer", float: "a number", bool: "a boolean",
                    type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPE_NAMES.get(type(value), type(value).__name__)


def check_type(value, types: tuple, path: str) -> None:
    """Raise :class:`LogFormatError` naming ``path`` unless ``value`` has
    one of the JSON ``types`` (``bool`` is not an ``int`` here)."""
    if type(value) not in types:
        expected = " or ".join(_JSON_TYPE_NAMES[kind] for kind in types)
        raise LogFormatError(
            f"{path} must be {expected}, got {_json_type(value)}")


def check_keys(data, keys: dict, path: str) -> None:
    """Raise :class:`LogFormatError` naming the first key of ``keys`` that
    the object at ``path`` lacks or holds with the wrong JSON type."""
    if type(data) is not dict:
        check_type(data, (dict,), path)
    for key, types in keys.items():
        try:
            value = data[key]
        except KeyError:
            raise LogFormatError(f"{path} is missing key {key!r}") from None
        if type(value) not in types:
            check_type(value, types, f"{path}.{key}")


def check_int_rows(rows, width: int, path: str) -> None:
    """Check an array of ``width``-integer arrays (dependence edges, load
    trace events); the first bad row raises :class:`LogFormatError`."""
    check_type(rows, (list,), path)
    for index, row in enumerate(rows):
        if (type(row) is not list or len(row) != width
                or any(type(value) is not int for value in row)):
            raise LogFormatError(
                f"{path}[{index}] must be an array of {width} integers")


def int_map_from_dict(data, path: str) -> dict[int, int]:
    """Decode an object written as ``{str(int): int}`` (a memory image,
    histogram counts, conflict lines).  A key that is not a decimal
    integer string or a value that is not an integer raises
    :class:`LogFormatError` naming it, e.g. ``final_memory["zz"]``."""
    check_type(data, (dict,), path)
    decoded = {}
    for key, value in data.items():
        try:
            number = int(key)
        except ValueError:
            number = None
        if str(number) != key:
            raise LogFormatError(f"{path}[{json.dumps(key)}]: the key must "
                                 f"be a decimal integer")
        if type(value) is not int:
            check_type(value, (int,), f"{path}[{json.dumps(key)}]")
        decoded[number] = value
    return decoded


def _check_ref(ref, size: int, path: str) -> None:
    """A cache-form reference must be ``[offset, length]`` inside the
    ``size``-byte payload."""
    try:
        offset, length = ref
    except (TypeError, ValueError):
        offset = length = None
    if (type(offset) is not int or type(length) is not int or offset < 0
            or length < 0 or offset + length > size):
        raise LogFormatError(f"{path} must be an [offset, length] reference "
                             f"into the {size}-byte payload")


def _check_fields(data, keys: dict) -> None:
    """Each of a run result's ``keys`` must be present with its JSON type."""
    for key, types in keys.items():
        if key not in data:
            raise LogFormatError(f"run result is missing key {key!r}")
        check_type(data[key], types, f"run result key {key!r}")


def _check_recordings(recordings: dict, keys: dict) -> None:
    for name, outputs in recordings.items():
        check_type(outputs, (list,), f"recordings.{name}")
        for index, output in enumerate(outputs):
            check_keys(output, keys, f"recordings.{name}[{index}]")


def _check_run_result(data, keys: dict) -> None:
    """Check a serialized run result, or a cache-form header, down to
    its ``keys``: the version, each of them and each ``cores`` entry.
    The first mismatch raises :class:`LogFormatError` naming its path,
    e.g. ``cores[0].final_regs``."""
    if type(data) is not dict:
        raise LogFormatError(
            f"run result must be a JSON object, got {_json_type(data)}")
    version = data.get("serialization_version")
    if version != SERIALIZATION_VERSION:
        raise LogFormatError(
            f"unsupported run-result serialization version {version!r} "
            f"(this build reads {SERIALIZATION_VERSION})")
    _check_fields(data, keys)
    for index, core in enumerate(data["cores"]):
        check_keys(core, _CORE_KEYS, f"cores[{index}]")


def _edges_from_dict(data: dict) -> dict[str, list[IntervalEdge]]:
    for name, rows in data.items():
        check_int_rows(rows, 4, f"dependence_edges.{name}")
    return {name: [IntervalEdge(*row) for row in rows]
            for name, rows in data.items()}


def _load_trace_from_dict(data: list | None, cores: int) -> list | None:
    if data is None:
        return None
    trace = []
    for index, core in enumerate(data):
        check_int_rows(core, 3, f"load_trace[{index}]")
        trace.append([tuple(event) for event in core])
    if len(trace) != cores:
        # The verifier pairs per-core lists with replayed cores; a missing
        # list would leave that core's loads unchecked.
        raise LogFormatError(
            f"load_trace has {len(trace)} per-core lists for a run of "
            f"{cores} cores")
    return trace


def _baselines_from_dict(per_core, path: str) -> list:
    check_type(per_core, (list,), path)
    return [_baseline_from_dict(entry, f"{path}[{index}]")
            for index, entry in enumerate(per_core)]


def _header_fields(data: dict) -> dict:
    """The :class:`RunResult` fields the wire form and the cache form's
    header hold alike."""
    from ..storage import config_from_dict

    return dict(
        config=config_from_dict(MachineConfig, data["config"], "config"),
        cycles=data["cycles"],
        cores=[_core_result_from_dict(core, f"cores[{index}]")
               for index, core in enumerate(data["cores"])],
        bus_transactions=data["bus_transactions"],
        baselines={name: _baselines_from_dict(per_core, f"baselines.{name}")
                   for name, per_core in data["baselines"].items()},
        metrics=metrics_snapshot_from_dict(data["metrics"]),
    )


def _detail_from_json(data, variants: dict) -> dict:
    """The detail part of a cache payload: JSON text, checked against the
    header's ``variants`` (the same names, one output per log)."""
    try:
        detail = json.loads(bytes(data))
    except ValueError as exc:
        raise LogFormatError(f"detail is not valid JSON: {exc}") from None
    if type(detail) is not dict:
        raise LogFormatError(
            f"detail must be a JSON object, got {_json_type(detail)}")
    _check_fields(detail, _DETAIL_KEYS)
    recordings = detail["recordings"]
    if list(recordings) != list(variants):
        raise LogFormatError(f"detail.recordings holds the variants "
                             f"{list(recordings)}, the header {list(variants)}")
    _check_recordings(recordings, _DETAIL_RECORDING_KEYS)
    for name, outputs in recordings.items():
        if len(outputs) != len(variants[name]["logs"]):
            raise LogFormatError(
                f"recordings.{name} holds {len(outputs)} per-core outputs "
                f"for {len(variants[name]['logs'])} logs")
    return detail


class _Detail:
    """The detail part of a cache payload, parsed and checked once, on
    the first read of any :data:`DETAIL_FIELDS` field; each field decodes
    from that one parse through its method here.  ``stats`` are the
    header's merged stats, which the per-core outputs must agree with."""

    def __init__(self, header: dict, payload, stats: dict):
        self.header = header
        self.payload = payload
        self.stats = stats

    @cached_property
    def data(self) -> dict:
        offset, length = self.header["detail"]
        return _detail_from_json(self.payload[offset:offset + length],
                                 self.header["variants"])

    def recordings(self) -> dict[str, list[RecorderOutput]]:
        recordings = {}
        for name, outputs in self.data["recordings"].items():
            logs = self.header["variants"][name]["logs"]
            recordings[name] = [
                _recorder_output_from_dict(
                    output, f"recordings.{name}[{index}]",
                    self.payload[offset:offset + length])
                for index, (output, (offset, length))
                in enumerate(zip(outputs, logs))]
            if RecorderStats.merged(output.stats for output
                                    in recordings[name]) != self.stats[name]:
                raise LogFormatError(
                    f"variants.{name}.stats is not recordings.{name}'s "
                    f"stats merged over its cores")
        return recordings

    def final_memory(self) -> dict[int, int]:
        return int_map_from_dict(self.data["final_memory"], "final_memory")

    def load_trace(self) -> list | None:
        return _load_trace_from_dict(self.data["load_trace"],
                                     len(self.header["cores"]))

    def dependence_edges(self) -> dict[str, list[IntervalEdge]]:
        return _edges_from_dict(self.data["dependence_edges"])


def run_result_from_dict(data: dict, payload=None) -> RunResult:
    """Rebuild a :class:`RunResult` written by :func:`run_result_to_dict`.

    With ``payload``, ``data`` is the cache form's header
    (:func:`split_run_result`): the header is checked here and its merged
    stats fill :meth:`RunResult.recording_stats`, while the program, the
    logs and the :data:`DETAIL_FIELDS` decode on first read (a
    ``functools.partial`` in the field), so a bad one raises then.  The
    per-core outputs must merge to the header's stats.
    A key that is missing or of the wrong JSON type — at the top level,
    in a ``cores``, ``recordings``, ``load_trace`` or ``baselines`` entry,
    in a recording's stats, a core's TRAQ occupancy or histogram, a
    metric, a ``dependence_edges`` value, a machine or recorder config
    field, the program or the final state — raises
    :class:`LogFormatError` naming its path.
    """
    from ..storage import program_from_dict

    if payload is not None:
        return _run_result_from_cache_form(data, payload)
    _check_run_result(data, _RUN_RESULT_KEYS)
    _check_recordings(data["recordings"], _RECORDING_KEYS)
    program = program_from_dict(data["program"])
    fields = _header_fields(data)
    return RunResult(
        program=program,
        recordings={
            name: [_recorder_output_from_dict(
                       output, f"recordings.{name}[{index}]")
                   for index, output in enumerate(outputs)]
            for name, outputs in data["recordings"].items()},
        final_memory=int_map_from_dict(data["final_memory"], "final_memory"),
        load_trace=_load_trace_from_dict(data["load_trace"],
                                         len(data["cores"])),
        dependence_edges=_edges_from_dict(data["dependence_edges"]),
        **fields,
    )


def _run_result_from_cache_form(header: dict, payload) -> RunResult:
    _check_run_result(header, _HEADER_KEYS)
    size = len(payload)
    _check_ref(header["program"], size, "program")
    _check_ref(header["detail"], size, "detail")
    stats = {}
    for name, variant in header["variants"].items():
        where = f"variants.{name}"
        check_keys(variant, _VARIANT_KEYS, where)
        for index, ref in enumerate(variant["logs"]):
            _check_ref(ref, size, f"{where}.logs[{index}]")
        stats[name] = recorder_stats_from_dict(variant["stats"],
                                               f"{where}.stats")
    detail = _Detail(header, payload, stats)
    offset, length = header["program"]
    result = RunResult(
        program=partial(_program_from_json, payload[offset:offset + length]),
        **{name: partial(getattr(detail, name)) for name in DETAIL_FIELDS},
        **_header_fields(header),
    )
    result._merged_stats.update(stats)
    return result
