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
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
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
    "run_result_to_dict", "run_result_from_dict",
    "check_type", "check_keys", "check_edge_rows",
    "memory_from_dict", "final_state_from_dict",
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


def online_stats_from_dict(data: dict) -> OnlineStats:
    """Rebuild an accumulator from :func:`online_stats_to_dict`."""
    stats = OnlineStats()
    stats.count = data["count"]
    stats.total = data["total"]
    if stats.count:
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


def histogram_from_dict(data: dict) -> Histogram:
    """Rebuild a histogram from :func:`histogram_to_dict`."""
    return Histogram(bin_width=data["bin_width"],
                     counts={int(index): count
                             for index, count in data["counts"].items()},
                     samples=data["samples"])


def recorder_stats_to_dict(stats: RecorderStats) -> dict:
    """JSON-able form of per-variant recorder stats."""
    out = dict(stats.counters())
    out["entry_bits_by_type"] = dict(stats.entry_bits_by_type)
    out["conflict_lines"] = {str(line): count
                             for line, count in stats.conflict_lines.items()}
    return out


def recorder_stats_from_dict(data: dict) -> RecorderStats:
    """Rebuild recorder stats from :func:`recorder_stats_to_dict`."""
    stats = RecorderStats(**{name: data[name]
                             for name in RecorderStats.COUNTER_FIELDS})
    stats.entry_bits_by_type = dict(data["entry_bits_by_type"])
    stats.conflict_lines = {int(line): count
                            for line, count in data["conflict_lines"].items()}
    return stats


def metrics_snapshot_to_dict(snapshot: MetricsSnapshot | None) -> dict | None:
    """JSON-able form of a metrics snapshot (None passes through)."""
    return None if snapshot is None else snapshot.to_dict()


def metrics_snapshot_from_dict(data: dict | None) -> MetricsSnapshot | None:
    """Rebuild a snapshot from :func:`metrics_snapshot_to_dict`."""
    return None if data is None else MetricsSnapshot.from_dict(data)


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


def _core_result_from_dict(data: dict) -> CoreResult:
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
        traq_occupancy=online_stats_from_dict(data["traq_occupancy"]),
        traq_histogram=histogram_from_dict(data["traq_histogram"]),
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


def _recorder_output_from_dict(data: dict, path: str) -> RecorderOutput:
    from ..storage import config_from_dict

    config = config_from_dict(RecorderConfig, data["config"],
                              f"{path}.config")
    entries = decode_log(base64.b64decode(data["log"]), data["bit_length"],
                         config)
    return RecorderOutput(
        core_id=data["core_id"], config=config, entries=entries,
        stats=recorder_stats_from_dict(data["stats"]))


def _baseline_to_dict(recorder) -> dict:
    stats = getattr(recorder, "stats", recorder)
    return {"log_bits": stats.log_bits,
            "instructions_counted": stats.instructions_counted,
            "chunked": hasattr(recorder, "stats")}


def _baseline_from_dict(data: dict):
    summary = BaselineSummary(log_bits=data["log_bits"],
                              instructions_counted=data["instructions_counted"])
    if data["chunked"]:
        # Chunk-style recorders expose their counters behind ``.stats``;
        # the figure code dispatches on that attribute, so preserve it.
        return SimpleNamespace(stats=summary)
    return summary


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
    check_type(data, (dict,), path)
    for key, types in keys.items():
        if key not in data:
            raise LogFormatError(f"{path} is missing key {key!r}")
        check_type(data[key], types, f"{path}.{key}")


def check_edge_rows(rows, path: str) -> None:
    """Check serialized dependence edges: an array of 4-integer arrays."""
    check_type(rows, (list,), path)
    for index, row in enumerate(rows):
        if (type(row) is not list or len(row) != 4
                or any(type(value) is not int for value in row)):
            raise LogFormatError(
                f"{path}[{index}] must be an array of 4 integers")


def memory_from_dict(data, path: str) -> dict[int, int]:
    """Decode a memory image written as ``{str(addr): value}``.  A key that
    is not a decimal integer string or a value that is not an integer
    raises :class:`LogFormatError` naming it, e.g. ``final_memory["zz"]``."""
    check_type(data, (dict,), path)
    memory = {}
    for key, value in data.items():
        try:
            addr = int(key)
        except ValueError:
            addr = None
        if str(addr) != key:
            raise LogFormatError(f"{path}[{json.dumps(key)}]: the key must "
                                 f"be a decimal integer")
        if type(value) is not int:
            check_type(value, (int,), f"{path}[{json.dumps(key)}]")
        memory[addr] = value
    return memory


def final_state_from_dict(final_memory, cores: list,
                          path: str = "") -> dict[int, int]:
    """Check a serialized final machine state below ``path``: each element
    of each ``cores[i].final_regs`` must be an integer, and
    ``final_memory`` a memory image (:func:`memory_from_dict`).  Returns
    the decoded final memory; the first mismatch raises
    :class:`LogFormatError` naming its path, e.g.
    ``manifest.verification.cores[0].final_regs[1]``."""
    prefix = f"{path}." if path else ""
    for index, core in enumerate(cores):
        for reg, value in enumerate(core["final_regs"]):
            if type(value) is not int:
                check_type(value, (int,),
                           f"{prefix}cores[{index}].final_regs[{reg}]")
    return memory_from_dict(final_memory, f"{prefix}final_memory")


def _check_run_result(data) -> None:
    """Check a serialized run result's shape: the version, every top-level
    key, each ``cores`` and ``recordings`` entry and each
    ``dependence_edges`` value.  The first mismatch raises
    :class:`LogFormatError` naming its path, e.g. ``cores[0].final_regs``."""
    if type(data) is not dict:
        raise LogFormatError(
            f"run result must be a JSON object, got {_json_type(data)}")
    version = data.get("serialization_version")
    if version != SERIALIZATION_VERSION:
        raise LogFormatError(
            f"unsupported run-result serialization version {version!r} "
            f"(this build reads {SERIALIZATION_VERSION})")
    for key, types in _RUN_RESULT_KEYS.items():
        if key not in data:
            raise LogFormatError(f"run result is missing key {key!r}")
        check_type(data[key], types, f"run result key {key!r}")
    for index, core in enumerate(data["cores"]):
        check_keys(core, _CORE_KEYS, f"cores[{index}]")
    for name, outputs in data["recordings"].items():
        check_type(outputs, (list,), f"recordings.{name}")
        for index, output in enumerate(outputs):
            check_keys(output, _RECORDING_KEYS,
                       f"recordings.{name}[{index}]")
    for name, rows in data["dependence_edges"].items():
        check_edge_rows(rows, f"dependence_edges.{name}")


def run_result_from_dict(data: dict) -> RunResult:
    """Rebuild a :class:`RunResult` written by :func:`run_result_to_dict`.

    A key that is missing or of the wrong JSON type — at the top level, in
    a ``cores`` or ``recordings`` entry, a ``dependence_edges`` value, a
    machine or recorder config field, the program or the final state —
    raises :class:`LogFormatError` naming its path.
    """
    from ..storage import config_from_dict, program_from_dict

    _check_run_result(data)
    load_trace = data["load_trace"]
    return RunResult(
        program=program_from_dict(data["program"]),
        config=config_from_dict(MachineConfig, data["config"], "config"),
        cycles=data["cycles"],
        cores=[_core_result_from_dict(core) for core in data["cores"]],
        recordings={
            name: [_recorder_output_from_dict(output,
                                              f"recordings.{name}[{index}]")
                   for index, output in enumerate(outputs)]
            for name, outputs in data["recordings"].items()},
        final_memory=final_state_from_dict(data["final_memory"],
                                           data["cores"]),
        bus_transactions=data["bus_transactions"],
        load_trace=(None if load_trace is None else
                    [[tuple(event) for event in core]
                     for core in load_trace]),
        baselines={name: [_baseline_from_dict(entry) for entry in per_core]
                   for name, per_core in data["baselines"].items()},
        dependence_edges={name: [IntervalEdge(*row) for row in rows]
                          for name, rows in data["dependence_edges"].items()},
        metrics=metrics_snapshot_from_dict(data["metrics"]),
    )
