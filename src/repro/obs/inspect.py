"""Time-travel replay inspection: checkpoints + reverse-debugging queries.

Deterministic replay makes a recording a *queryable database of machine
states*: any point of the execution can be reconstructed by replaying up
to it.  Doing that from cycle zero for every question is wasteful, so
:class:`CheckpointStore` snapshots the full replay state — memory image,
per-core :class:`~repro.replay.interpreter.ThreadContext`\\ s (captured via
:mod:`repro.sim.serialize`), CISN watermarks and replay counters — every N
committed chunks, and queries restore the nearest checkpoint and replay
forward.  Restore-and-run-forward is observationally invisible: the
differential suite proves byte-identical final memory, registers and
counts against straight-line replay.

:class:`ReplayInspector` is the query engine the ``repro.tools inspect``
CLI and the divergence forensics ride on:

* ``state_at(core, cisn)`` — the whole-machine state right after a chunk
  committed (registers, PCs, memory, watermarks);
* ``first_write(addr)`` / ``last_write(addr)`` — write attribution from
  the replay-order access log;
* ``who_read(addr, value=None)`` — every read of an address (optionally
  filtered to the reads that observed one value);
* ``timeline(core)`` — the per-chunk interval timeline of one core;
* ``hb_slice(core, cisn)`` — the chunk's happens-before causal cone
  (:mod:`repro.obs.causality`).

:class:`LogSummary` needs no replay: it walks one variant's decoded logs
once for the entry kinds, the distributions and the interval timeline
that ``repro.tools inspect DIR -v/--analyze`` prints; its counts equal
the recorder's own stats, which a plain ``inspect DIR`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from statistics import fmean

from ..common.config import RecorderConfig
from ..recorder.logfmt import (InorderBlock, IntervalFrame, ReorderedRmw,
                               ReorderedStore, entry_bit_size)
from ..replay.costmodel import ReplayCounts
from ..replay.replayer import ReplayState, Replayer, _WriterTrackingMemory
from ..sim.serialize import thread_context_from_dict, thread_context_to_dict
from .causality import HBSlice

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "READ_KINDS",
    "WRITE_KINDS",
    "LogSummary",
    "ReplayCheckpoint",
    "CheckpointStore",
    "MemoryAccess",
    "AccessLog",
    "StateView",
    "ReplayInspector",
]

#: Snapshot cadence (committed chunks) when the caller does not choose one.
DEFAULT_CHECKPOINT_EVERY = 8

#: Access-log kinds that mutate memory.
WRITE_KINDS = frozenset({"store", "rmw-store", "patched-store"})
#: Access-log kinds that observe memory (injected loads replay the
#: recorded value; their address is recomputed deterministically).
READ_KINDS = frozenset({"load", "rmw-load", "injected-load"})


# ------------------------------------------------------------ checkpoints

@dataclass
class ReplayCheckpoint:
    """A full replay-state snapshot taken after ``position`` chunks."""

    checkpoint_id: int
    position: int                       # committed intervals at capture
    cisn_watermarks: list[int]          # per core: next CISN to commit
    memory: dict[int, int]
    writers: dict[int, tuple[int, int]]  # addr -> (core, cisn) last writer
    contexts: list[dict]                # serialized ThreadContexts
    counts: ReplayCounts

    def to_dict(self) -> dict:
        """JSON-able form (rides on :mod:`repro.sim.serialize` idioms)."""
        from dataclasses import asdict

        return {
            "checkpoint_id": self.checkpoint_id,
            "position": self.position,
            "cisn_watermarks": list(self.cisn_watermarks),
            "memory": {str(addr): value
                       for addr, value in self.memory.items()},
            "writers": {str(addr): [core, cisn]
                        for addr, (core, cisn) in self.writers.items()},
            "contexts": [dict(context) for context in self.contexts],
            "counts": asdict(self.counts),
        }

    @staticmethod
    def from_dict(data: dict) -> "ReplayCheckpoint":
        return ReplayCheckpoint(
            checkpoint_id=data["checkpoint_id"],
            position=data["position"],
            cisn_watermarks=list(data["cisn_watermarks"]),
            memory={int(addr): value
                    for addr, value in data["memory"].items()},
            writers={int(addr): (core, cisn)
                     for addr, (core, cisn) in data["writers"].items()},
            contexts=[dict(context) for context in data["contexts"]],
            counts=ReplayCounts(**data["counts"]),
        )


class CheckpointStore:
    """Ordered collection of replay checkpoints with nearest-lookup."""

    def __init__(self):
        self.checkpoints: list[ReplayCheckpoint] = []

    def __len__(self) -> int:
        return len(self.checkpoints)

    def capture(self, replayer: Replayer,
                state: ReplayState) -> ReplayCheckpoint:
        """Snapshot ``state`` (deep copies; the live replay keeps going)."""
        checkpoint = ReplayCheckpoint(
            checkpoint_id=len(self.checkpoints),
            position=state.position,
            cisn_watermarks=list(state.cisn_watermarks),
            memory=dict(state.memory),
            writers=dict(state.memory.writers),
            contexts=[thread_context_to_dict(context)
                      for context in state.contexts],
            counts=replace(state.counts),
        )
        self.checkpoints.append(checkpoint)
        return checkpoint

    def nearest(self, position: int) -> ReplayCheckpoint | None:
        """Latest checkpoint at or before ``position`` (None if empty)."""
        candidates = [checkpoint for checkpoint in self.checkpoints
                      if checkpoint.position <= position]
        if not candidates:
            return None
        return max(candidates,
                   key=lambda cp: (cp.position, cp.checkpoint_id))

    def restore(self, checkpoint: ReplayCheckpoint,
                replayer: Replayer) -> ReplayState:
        """Rebuild a live :class:`ReplayState` from a snapshot."""
        memory = _WriterTrackingMemory(checkpoint.memory)
        memory.writers = dict(checkpoint.writers)
        contexts = [thread_context_from_dict(data, replayer.program)
                    for data in checkpoint.contexts]
        return ReplayState(
            memory=memory, contexts=contexts,
            counts=replace(checkpoint.counts),
            position=checkpoint.position,
            cisn_watermarks=list(checkpoint.cisn_watermarks))


# ------------------------------------------------------------- access log

@dataclass(frozen=True)
class MemoryAccess:
    """One replayed memory access, attributed to its chunk."""

    step: int          # global replay-order ordinal
    position: int      # interval index in the QuickRec order
    core_id: int
    cisn: int
    kind: str          # load | store | rmw-load | rmw-store |
    #                    injected-load | patched-store
    addr: int
    value: int

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS

    def to_dict(self) -> dict:
        return {"step": self.step, "position": self.position,
                "core": self.core_id, "cisn": self.cisn, "kind": self.kind,
                "addr": self.addr, "value": self.value}

    def render(self) -> str:
        return (f"step {self.step}: core {self.core_id} chunk {self.cisn} "
                f"{self.kind} {self.addr:#x} = {self.value:#x}")


class AccessLog:
    """Replay-order log of every memory access, indexed by address.

    Plugs into :meth:`Replayer.run` as the ``access_sink``.
    """

    def __init__(self):
        self.accesses: list[MemoryAccess] = []
        self._by_addr: dict[int, list[MemoryAccess]] = {}
        self._position = -1
        self._core = -1
        self._cisn = -1

    def __len__(self) -> int:
        return len(self.accesses)

    # Replayer sink protocol -------------------------------------------

    def begin_interval(self, position: int, interval) -> None:
        self._position = position
        self._core = interval.core_id
        self._cisn = interval.cisn

    def access(self, kind: str, addr: int, value: int) -> None:
        record = MemoryAccess(step=len(self.accesses),
                              position=self._position, core_id=self._core,
                              cisn=self._cisn, kind=kind, addr=addr,
                              value=value)
        self.accesses.append(record)
        self._by_addr.setdefault(addr, []).append(record)

    # Queries ------------------------------------------------------------

    def writes_to(self, addr: int) -> list[MemoryAccess]:
        return [access for access in self._by_addr.get(addr, ())
                if access.kind in WRITE_KINDS]

    def reads_of(self, addr: int,
                 value: int | None = None) -> list[MemoryAccess]:
        return [access for access in self._by_addr.get(addr, ())
                if access.kind in READ_KINDS
                and (value is None or access.value == value)]

    def first_write(self, addr: int) -> MemoryAccess | None:
        writes = self.writes_to(addr)
        return writes[0] if writes else None

    def last_write(self, addr: int) -> MemoryAccess | None:
        writes = self.writes_to(addr)
        return writes[-1] if writes else None

    def touched_addresses(self) -> list[int]:
        return sorted(self._by_addr)


# ------------------------------------------------------------ state views

@dataclass
class StateView:
    """The whole-machine replay state at one position."""

    position: int
    cisn_watermarks: list[int]
    memory: dict[int, int]              # nonzero words only
    cores: list[dict]                   # serialized ThreadContexts
    counts: ReplayCounts
    checkpoint_id: int
    replayed_forward: int               # chunks replayed past the checkpoint

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return {
            "position": self.position,
            "cisn_watermarks": list(self.cisn_watermarks),
            "memory": {str(addr): value
                       for addr, value in sorted(self.memory.items())},
            "cores": [dict(core) for core in self.cores],
            "counts": asdict(self.counts),
            "checkpoint_id": self.checkpoint_id,
            "replayed_forward": self.replayed_forward,
        }

    def render(self) -> str:
        lines = [f"state after {self.position} committed chunk(s) "
                 f"(checkpoint #{self.checkpoint_id} + "
                 f"{self.replayed_forward} replayed forward)",
                 "  cisn watermarks: "
                 + " ".join(f"core{core}={cisn}" for core, cisn
                            in enumerate(self.cisn_watermarks))]
        for core in self.cores:
            touched = {index: value for index, value
                       in enumerate(core["regs"]) if value}
            regs = " ".join(f"r{index}={value:#x}"
                            for index, value in sorted(touched.items()))
            lines.append(
                f"  core {core['core_id']}: pc={core['pc']} "
                f"retired={core['instructions_executed']}"
                + (" halted" if core["halted"] else "")
                + (f" {regs}" if regs else ""))
        lines.append(f"  memory ({len(self.memory)} nonzero words):")
        for addr, value in sorted(self.memory.items()):
            lines.append(f"    {addr:#08x} = {value:#x}")
        return "\n".join(lines)


# ---------------------------------------------------------- the inspector

class ReplayInspector:
    """Reverse-debugging query engine over one recorded variant.

    ``recording`` is a :class:`~repro.sim.machine.RunResult`, live or
    loaded (:func:`~repro.storage.load_recording` returns one);
    ``variant`` defaults to its first in sorted order.  Construction
    replays the recording once end to end, capturing checkpoints every
    ``checkpoint_every`` chunks and indexing every memory access; queries
    then cost one nearest-checkpoint restore plus a bounded forward
    replay.
    """

    def __init__(self, recording, variant: str | None = None, *,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY):
        if checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.replayer = Replayer.of(recording, variant)
        self.variant = self.replayer.variant
        self.recording_cycles = recording.cycles
        self.checkpoint_every = checkpoint_every
        self.replayer.attach_time_travel(
            recording.dependence_edges.get(self.variant))
        self.checkpoints = self.replayer.checkpoint_store
        self.graph = self.replayer.hb_graph
        self.accesses = AccessLog()
        #: The executor's own counts of each interval, by replay position.
        self.interval_counts: list[ReplayCounts] = []

        def keep_counts(_state, _interval, interval_counts):
            self.interval_counts.append(interval_counts)

        memory, contexts, counts = self.replayer.replay(
            checkpoint_every=checkpoint_every,
            checkpoint_sink=self.checkpoints.capture,
            access_sink=self.accesses, on_interval_end=keep_counts)
        self.final_memory = {addr: value for addr, value in memory.items()
                             if value}
        self.final_writers = dict(memory.writers)
        self.final_counts = counts

    # State queries ------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self.replayer.intervals)

    def _position_of(self, core_id: int, cisn: int) -> int:
        position = self.replayer.index_of(core_id, cisn)
        if position is None:
            raise KeyError(f"no chunk (core {core_id}, cisn {cisn}) in "
                           f"variant {self.variant!r}")
        return position

    def state_at(self, core_id: int, cisn: int) -> StateView:
        """Machine state right after core ``core_id`` committed chunk
        ``cisn`` (resolves the nearest checkpoint, replays forward)."""
        return self.state_at_position(self._position_of(core_id, cisn) + 1)

    def state_at_position(self, position: int) -> StateView:
        """Machine state after ``position`` chunks of the total order."""
        if not 0 <= position <= self.num_intervals:
            raise KeyError(f"position {position} outside "
                           f"0..{self.num_intervals}")
        checkpoint = self.checkpoints.nearest(position)
        state = self.checkpoints.restore(checkpoint, self.replayer)
        self.replayer.run(state, stop=position)
        return StateView(
            position=position,
            cisn_watermarks=list(state.cisn_watermarks),
            memory={addr: value for addr, value in state.memory.items()
                    if value},
            cores=[thread_context_to_dict(context)
                   for context in state.contexts],
            counts=replace(state.counts),
            checkpoint_id=checkpoint.checkpoint_id,
            replayed_forward=position - checkpoint.position)

    def checkpoint_at(self, core_id: int, cisn: int) -> ReplayCheckpoint:
        """On-demand checkpoint right after one chunk (cached for reuse)."""
        position = self._position_of(core_id, cisn) + 1
        nearest = self.checkpoints.nearest(position)
        if nearest is not None and nearest.position == position:
            return nearest
        state = self.checkpoints.restore(nearest, self.replayer)
        self.replayer.run(state, stop=position)
        return self.checkpoints.capture(self.replayer, state)

    # Data-flow queries --------------------------------------------------

    def first_write(self, addr: int) -> MemoryAccess | None:
        return self.accesses.first_write(addr)

    def last_write(self, addr: int) -> MemoryAccess | None:
        return self.accesses.last_write(addr)

    def writes_to(self, addr: int) -> list[MemoryAccess]:
        return self.accesses.writes_to(addr)

    def who_read(self, addr: int,
                 value: int | None = None) -> list[MemoryAccess]:
        return self.accesses.reads_of(addr, value)

    # Structure queries --------------------------------------------------

    def timeline(self, core_id: int) -> list[dict]:
        """Per-chunk interval timeline of one core (replay order)."""
        if not 0 <= core_id < self.replayer.program.num_threads:
            raise KeyError(f"core {core_id} out of range "
                           f"(program has "
                           f"{self.replayer.program.num_threads} threads)")
        spans = []
        for position, interval in enumerate(self.replayer.intervals):
            if interval.core_id != core_id:
                continue
            start, end = self.replayer.interval_bounds(core_id, interval.cisn)
            counts = self.interval_counts[position]
            spans.append({
                "cisn": interval.cisn,
                "position": position,
                "start": start,
                "end": end,
                "instructions": counts.instructions,
                "injected_loads": counts.injected_loads,
                "dummies": counts.dummies,
                "patched_writes": counts.patched_writes,
            })
        return spans

    def hb_slice(self, core_id: int, cisn: int, *,
                 depth: int | None = None) -> HBSlice:
        """The chunk's happens-before causal cone."""
        return self.graph.slice((core_id, cisn), depth=depth)

    def summary(self) -> dict:
        """JSON-able overview of the inspected recording."""
        return {
            "variant": self.variant,
            "intervals": self.num_intervals,
            "intervals_per_core": self.replayer.intervals_per_core(),
            "checkpoints": len(self.checkpoints),
            "checkpoint_every": self.checkpoint_every,
            "accesses": len(self.accesses),
            "touched_addresses": len(self.accesses.touched_addresses()),
            "hb_source": self.graph.source,
            "hb_edges": self.graph.num_edges,
            "recording_cycles": self.recording_cycles,
        }


# ----------------------------------------------------------- log summaries

@dataclass
class LogSummary:
    """One variant's interval logs, summarized in one walk over each core's
    decoded entries (:meth:`of`).

    The counts equal the recorder's own
    :class:`~repro.recorder.mrr.RecorderStats` for the same variant; the
    distributions are the ones behind the paper's averages.  Instructions
    count toward the interval their ``IntervalFrame`` closes, and an
    interval spans the recording cycles from the previous frame's
    timestamp (0 for the first) to its own.
    """

    kinds: dict[str, int] = field(default_factory=dict)  # entries per type
    bits_by_type: dict[str, int] = field(default_factory=dict)
    interval_sizes: list[int] = field(default_factory=list)  # instructions
    blocks_per_interval: list[int] = field(default_factory=list)
    block_sizes: list[int] = field(default_factory=list)  # InorderBlocks
    #: Patch offsets, in intervals, of reordered stores and RMWs.
    store_offsets: list[int] = field(default_factory=list)
    #: Per core, each interval's ``(start, end)`` recording cycles.
    spans: list[list[tuple[int, int]]] = field(default_factory=list)

    @classmethod
    def of(cls, per_core_entries: list[list],
           config: RecorderConfig) -> "LogSummary":
        """Summarize one variant's per-core entry streams, recorded with
        ``config``."""
        summary = cls()
        kinds, bits_by_type = summary.kinds, summary.bits_by_type
        for entries in per_core_entries:
            spans: list[tuple[int, int]] = []
            size = blocks = start = 0
            for entry in entries:
                kind = type(entry).__name__
                kinds[kind] = kinds.get(kind, 0) + 1
                bits_by_type[kind] = (bits_by_type.get(kind, 0)
                                      + entry_bit_size(entry, config))
                if isinstance(entry, IntervalFrame):
                    summary.interval_sizes.append(size)
                    summary.blocks_per_interval.append(blocks)
                    spans.append((start, entry.timestamp))
                    size = blocks = 0
                    start = entry.timestamp
                elif isinstance(entry, InorderBlock):
                    summary.block_sizes.append(entry.size)
                    size += entry.size
                    blocks += 1
                else:  # one reordered access or dummy
                    size += 1
                    if isinstance(entry, (ReorderedStore, ReorderedRmw)):
                        summary.store_offsets.append(entry.offset)
            summary.spans.append(spans)
        return summary

    @property
    def entries(self) -> int:
        return sum(self.kinds.values())

    @property
    def bits(self) -> int:
        return sum(self.bits_by_type.values())

    @property
    def intervals(self) -> int:
        return len(self.interval_sizes)

    @property
    def instructions(self) -> int:
        return sum(self.interval_sizes)

    def render_profile(self, name: str) -> str:
        """The counts and distributions as an ASCII report."""
        bits, instructions = self.bits, self.instructions
        per_kilo = bits * 1000.0 / instructions if instructions else 0.0
        lines = [f"profile: {name}",
                 f"  intervals            : {self.intervals}",
                 f"  entries              : {self.entries} ({bits} bits, "
                 f"{per_kilo:.0f} b/KI)",
                 f"  instructions covered : {instructions}"]
        if self.interval_sizes:
            sizes = self.interval_sizes
            lines.append(f"  interval size        : mean "
                         f"{fmean(sizes):.1f} instructions "
                         f"(min {min(sizes)}, max {max(sizes)})")
            lines.append(f"  blocks per interval  : mean "
                         f"{fmean(self.blocks_per_interval):.1f}")
        if self.block_sizes:
            sizes = self.block_sizes
            lines.append(f"  InorderBlock size    : mean "
                         f"{fmean(sizes):.1f} "
                         f"(min {min(sizes)}, max {max(sizes)})")
        lines.append(f"  reordered entries    : "
                     f"{self.kinds.get('ReorderedLoad', 0)} loads, "
                     f"{self.kinds.get('ReorderedStore', 0)} stores, "
                     f"{self.kinds.get('ReorderedRmw', 0)} RMWs")
        if self.store_offsets:
            offsets = self.store_offsets
            lines.append(f"  store patch offsets  : mean "
                         f"{fmean(offsets):.2f} intervals "
                         f"(max {max(offsets)})")
        for kind, kind_bits in sorted(self.bits_by_type.items(),
                                      key=lambda item: -item[1]):
            lines.append(f"  bits in {kind:<14s}: {kind_bits:>8d} "
                         f"({100 * kind_bits / (bits or 1):.1f}%)")
        return "\n".join(lines) + "\n"

    def render_timeline(self, width: int = 72) -> str:
        """Every core's intervals on one scaled cycle axis, one ``|`` per
        interval boundary."""
        horizon = max((end for spans in self.spans for _, end in spans),
                      default=0)
        if horizon == 0:
            return "(no intervals)\n"

        def column(cycle: int) -> int:
            return min(width - 1, cycle * (width - 1) // horizon)

        lines = [f"interval timeline (0 .. {horizon} cycles; each char ~ "
                 f"{max(1, horizon // width)} cycles; '|' = interval "
                 f"boundary)"]
        for core_id, spans in enumerate(self.spans):
            row = [" "] * width
            for start, end in spans:
                start_col = column(start)
                end_col = max(column(end), start_col)
                for col in range(start_col, end_col):
                    if row[col] == " ":
                        row[col] = "-"
                row[end_col] = "|"
            lines.append(f"  core {core_id}: " + "".join(row)
                         + f"  ({len(spans)} intervals)")
        return "\n".join(lines) + "\n"
