"""Deterministic replayer with verification (Section 3.5).

The replayer consumes a recording (one recorder variant's per-core interval
logs), patches reordered stores, orders all intervals by their QuickRec
timestamps, and re-executes the program: InorderBlocks run natively on the
in-order interpreter, ReorderedLoads inject logged values, Dummies skip
patched stores, and PatchedWrites apply relocated memory updates.
:meth:`Replayer.run` is the only code that executes intervals; the
inspector and parallel replay (via :meth:`Replayer.reorder`) use it too.
A recording is a :class:`~repro.sim.machine.RunResult`: live, read from
a run file, or loaded from a recording directory as its subclass
:class:`~repro.storage.StoredRecording`.

Unlike the paper — which asserts determinism — every replay form
*verifies* it in one step (:func:`verify_and_cost`): final memory, final
architectural registers, and (when a load trace was captured) every loaded
value are compared against the recorded execution, raising
:class:`~repro.common.errors.ReplayDivergenceError` on the first mismatch.
The property-based test-suite leans on this heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import LogFormatError
from ..isa.instructions import MASK64
from ..isa.program import Program
from ..obs.events import CheckpointEvent, DivergenceEvent, ReplayStepEvent
from ..obs.forensics import build_report, raise_divergence
from ..obs.tracer import Tracer
from ..recorder.logfmt import Dummy, InorderBlock, ReorderedLoad
from .costmodel import (ReplayCounts, ReplayTime, estimate_replay_time,
                        recorded_cpi)
from .interpreter import ThreadContext
from .patcher import PatchedWrite, ReplayInterval, group_intervals, patch_intervals

__all__ = ["ReplayResult", "ReplayState", "Replayer", "pick_variant",
           "replay_recording", "verify_and_cost"]


class _WriterTrackingMemory(dict):
    """Replay memory that attributes every write to (core, chunk).

    The replay loop sets ``current`` to the interval being executed; every
    ``memory[addr] = value`` — native InorderBlock stores, RMWs and
    PatchedWrites alike — then lands in ``writers``, giving the forensics
    reporter a last-writer map at zero structural cost to the interpreter.
    """

    __slots__ = ("current", "writers")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.current: tuple[int, int] | None = None  # (core_id, cisn)
        self.writers: dict[int, tuple[int, int]] = {}

    def __setitem__(self, addr, value):
        if self.current is not None:
            self.writers[addr] = self.current
        super().__setitem__(addr, value)


@dataclass
class ReplayState:
    """Mid-replay machine state: resumable, checkpointable.

    ``position`` counts the intervals already committed in the QuickRec
    total order (an index into ``Replayer.intervals``); ``cisn_watermarks``
    holds, per core, the CISN the core will commit next.  A state captured
    after interval *p-1* and run forward is byte-identical to straight-line
    replay — the differential checkpoint suite proves it.
    """

    memory: "_WriterTrackingMemory"
    contexts: list[ThreadContext]
    counts: ReplayCounts
    position: int = 0
    cisn_watermarks: list[int] = field(default_factory=list)


@dataclass
class ReplayResult:
    """Outcome of a verified deterministic replay."""

    variant: str
    counts: ReplayCounts
    time: ReplayTime
    final_memory: dict[int, int]
    final_regs: list[list[int]]
    verified: bool

    def normalized_to_recording(self, recording_cycles: int) -> dict[str, float]:
        return self.time.normalized_to(recording_cycles)


class Replayer:
    """Replays one recorder variant's log against the original program."""

    def __init__(self, program: Program, per_core_entries: list[list],
                 *, cisn_bits: int = 16, variant: str = "default",
                 tracer: Tracer | None = None):
        if len(per_core_entries) != program.num_threads:
            raise LogFormatError(
                f"log has {len(per_core_entries)} cores, program has "
                f"{program.num_threads} threads")
        self.program = program
        self.variant = variant
        self.tracer = tracer
        intervals: list[ReplayInterval] = []
        # (core_id, cisn) -> recording cycles the chunk spans, for forensics.
        self._bounds: dict[tuple[int, int], tuple[int, int]] = {}
        for core_id, entries in enumerate(per_core_entries):
            per_core = group_intervals(core_id, list(entries),
                                       cisn_bits=cisn_bits)
            previous_end = 0
            for interval in per_core:
                self._bounds[(core_id, interval.cisn)] = (previous_end,
                                                          interval.timestamp)
                previous_end = interval.timestamp
            patch_intervals(per_core)
            intervals.extend(per_core)
        intervals.sort(key=ReplayInterval.sort_key)
        self.intervals = intervals
        # Global replay position of each (core, cisn) chunk.
        self._index: dict[tuple[int, int], int] = {
            (interval.core_id, interval.cisn): position
            for position, interval in enumerate(intervals)}
        # Optional introspection attachments (duck-typed to avoid import
        # cycles): a CheckpointStore with ``nearest(position)`` and an HB
        # graph with ``has_node``/``slice`` (see repro.obs.inspect /
        # repro.obs.causality).  When present, divergence reports name the
        # nearest checkpoint and the culprit chunk's causal cone.
        self.checkpoint_store = None
        self.hb_graph = None

    @classmethod
    def of(cls, recording, variant: str | None = None, *,
           tracer: Tracer | None = None) -> "Replayer":
        """The replayer of one variant (default: the first in sorted order)
        of a ``RunResult``."""
        variant = pick_variant(recording, variant)
        return cls(recording.program, recording.log_entries(variant),
                   cisn_bits=recording.recorder_config(variant).cisn_bits,
                   variant=variant, tracer=tracer)

    def reorder(self, order: list[tuple[int, int]]) -> None:
        """Replay the (core, cisn) chunks in ``order``, a permutation of
        :meth:`quickrec_order` such as a dependence DAG's topological
        order, instead of the QuickRec total order."""
        by_node = {(interval.core_id, interval.cisn): interval
                   for interval in self.intervals}
        self.intervals = [by_node[node] for node in order]
        self._index = {node: position for position, node in enumerate(order)}

    def attach_time_travel(self, edges) -> None:
        """Capture checkpoints during :meth:`replay` and build the
        happens-before graph over ``edges`` (None when not collected), so a
        divergence report names the nearest checkpoint and the culprit
        chunk's causal cone."""
        from ..obs.causality import CausalityGraph
        from ..obs.inspect import CheckpointStore

        self.checkpoint_store = CheckpointStore()
        self.hb_graph = CausalityGraph.build(
            self.intervals_per_core(), edges=edges,
            order=self.quickrec_order())

    def interval_bounds(self, core_id: int, cisn: int) -> tuple[int, int] | None:
        """Recording cycles (start, end) spanned by a core's chunk."""
        return self._bounds.get((core_id, cisn))

    def index_of(self, core_id: int, cisn: int) -> int | None:
        """Global replay position of one chunk (None if not in the log)."""
        return self._index.get((core_id, cisn))

    def intervals_per_core(self) -> list[int]:
        """Number of committed intervals per core."""
        counts = [0] * self.program.num_threads
        for interval in self.intervals:
            counts[interval.core_id] = max(counts[interval.core_id],
                                           interval.cisn + 1)
        return counts

    def quickrec_order(self) -> list[tuple[int, int]]:
        """The (core, cisn) chunks in replay order: the QuickRec total
        order unless :meth:`reorder` changed it."""
        return [(interval.core_id, interval.cisn)
                for interval in self.intervals]

    def initial_state(self) -> ReplayState:
        """Fresh pre-replay state (program entry, initial memory image)."""
        memory = _WriterTrackingMemory(
            {addr: value & MASK64 for addr, value
             in self.program.initial_memory.items()})
        contexts = [ThreadContext(core_id, self.program.threads[core_id])
                    for core_id in range(self.program.num_threads)]
        return ReplayState(memory=memory, contexts=contexts,
                           counts=ReplayCounts(),
                           position=0,
                           cisn_watermarks=[0] * self.program.num_threads)

    def run(self, state: ReplayState, *, stop: int | None = None,
            access_sink=None, on_interval_end=None) -> ReplayState:
        """Advance ``state`` through intervals ``[state.position, stop)``.

        ``access_sink`` (see :mod:`repro.obs.inspect`) observes every memory
        access: it gets ``begin_interval(position, interval)`` before each
        chunk and ``access(kind, addr, value)`` per access.
        ``on_interval_end(state, interval, counts)`` fires after each
        commit with that interval's own :class:`ReplayCounts` (the
        checkpoint and parallel-schedule hook).  Both default to None and
        cost nothing then.
        """
        end = len(self.intervals) if stop is None else stop
        if not state.position <= end <= len(self.intervals):
            raise LogFormatError(
                f"replay range {state.position}..{end} outside the log's "
                f"{len(self.intervals)} intervals")
        memory, contexts, counts = state.memory, state.contexts, state.counts
        if access_sink is not None:
            for context in contexts:
                context.access_sink = access_sink.access
        try:
            for position in range(state.position, end):
                interval = self.intervals[position]
                # In the real system the OS waits here for all predecessor
                # intervals; replaying one chunk at a time makes that wait
                # implicit.
                memory.current = (interval.core_id, interval.cisn)
                if access_sink is not None:
                    access_sink.begin_interval(position, interval)
                context = contexts[interval.core_id]
                instructions = blocks = injected = dummies = patched = 0
                for entry in interval.entries:
                    if isinstance(entry, InorderBlock):
                        for _ in range(entry.size):
                            context.step(memory)
                        instructions += entry.size
                        blocks += 1
                    elif isinstance(entry, ReorderedLoad):
                        context.inject_load_value(entry.value)
                        injected += 1
                    elif isinstance(entry, Dummy):
                        context.skip_store()
                        dummies += 1
                    elif isinstance(entry, PatchedWrite):
                        memory[entry.addr] = entry.value & MASK64
                        if access_sink is not None:
                            access_sink.access("patched-store", entry.addr,
                                               entry.value & MASK64)
                        patched += 1
                    else:
                        raise LogFormatError(
                            f"unpatched or unknown entry {entry!r} during "
                            f"replay")
                counts.intervals += 1
                counts.instructions += instructions
                counts.inorder_blocks += blocks
                counts.injected_loads += injected
                counts.dummies += dummies
                counts.patched_writes += patched
                if self.tracer is not None:
                    self.tracer.emit(ReplayStepEvent(
                        cycle=interval.timestamp, core_id=interval.core_id,
                        variant=self.variant, cisn=interval.cisn,
                        timestamp=interval.timestamp,
                        instructions=instructions,
                        injected_loads=injected, patched_writes=patched))
                state.position = position + 1
                state.cisn_watermarks[interval.core_id] = interval.cisn + 1
                if on_interval_end is not None:
                    on_interval_end(state, interval, ReplayCounts(
                        instructions=instructions, injected_loads=injected,
                        dummies=dummies, patched_writes=patched,
                        inorder_blocks=blocks, intervals=1))
        finally:
            if access_sink is not None:
                for context in contexts:
                    context.access_sink = None
            memory.current = None
        return state

    def replay(self, *, checkpoint_every: int | None = None,
               checkpoint_sink=None, access_sink=None, on_interval_end=None
               ) -> tuple[dict[int, int], list[ThreadContext], ReplayCounts]:
        """Run the full replay; returns (memory, contexts, counts).

        With ``checkpoint_sink`` (a callable ``(replayer, state) ->
        checkpoint``, e.g. :meth:`repro.obs.inspect.CheckpointStore.capture`)
        a snapshot is taken before the first interval and after every
        ``checkpoint_every`` committed chunks.  ``access_sink`` and
        ``on_interval_end`` go to :meth:`run`.
        """
        state = self.initial_state()
        hook = on_interval_end
        if checkpoint_sink is not None:
            every = checkpoint_every or 1
            self._emit_checkpoint(checkpoint_sink(self, state), cycle=0)

            def hook(state, interval, counts):
                if on_interval_end is not None:
                    on_interval_end(state, interval, counts)
                if state.position % every == 0:
                    self._emit_checkpoint(checkpoint_sink(self, state),
                                          cycle=interval.timestamp)

        self.run(state, access_sink=access_sink, on_interval_end=hook)
        return state.memory, state.contexts, state.counts

    def _emit_checkpoint(self, checkpoint, *, cycle: int) -> None:
        if self.tracer is not None and checkpoint is not None:
            self.tracer.emit(CheckpointEvent(
                cycle=cycle, core_id=-1, variant=self.variant,
                checkpoint_id=checkpoint.checkpoint_id,
                position=checkpoint.position))


def pick_variant(recording, variant: str | None = None) -> str:
    """``variant``, or by default the recording's first variant in sorted
    order; a name the recording lacks raises :class:`LogFormatError`
    naming the available ones."""
    variants = recording.variants
    if variant is None and variants:
        return variants[0]
    if variant not in variants:
        raise LogFormatError(
            f"recording has no variant {variant!r}; available: "
            f"{', '.join(variants) or 'none'}")
    return variant


def replay_recording(recording, variant: str | None = None, *,
                     verify: bool = True,
                     verify_load_trace: bool = True,
                     tracer: Tracer | None = None,
                     checkpoint_every: int | None = None) -> ReplayResult:
    """Replay one variant (default: the first in sorted order) of a
    ``RunResult`` and verify it (:func:`verify_and_cost`).

    A mismatch raises :class:`ReplayDivergenceError` carrying a
    :class:`~repro.obs.forensics.DivergenceReport` (with recent history
    when ``tracer`` is given) naming the culprit core/chunk/address.

    ``checkpoint_every`` additionally captures a replay checkpoint every N
    committed chunks and builds the happens-before graph, so a divergence
    report also names the nearest checkpoint, the culprit chunk's causal
    cone, and a ready-to-run ``repro.tools inspect`` command line.
    """
    replayer = Replayer.of(recording, variant, tracer=tracer)
    checkpoint_sink = None
    if checkpoint_every is not None:
        replayer.attach_time_travel(
            recording.dependence_edges.get(replayer.variant))
        checkpoint_sink = replayer.checkpoint_store.capture
    memory, contexts, counts = replayer.replay(
        checkpoint_every=checkpoint_every, checkpoint_sink=checkpoint_sink)
    return verify_and_cost(recording, replayer, memory, contexts, counts,
                           verify=verify, verify_load_trace=verify_load_trace)


def verify_and_cost(recording, replayer: Replayer, memory: dict[int, int],
                    contexts: list[ThreadContext], counts: ReplayCounts, *,
                    verify: bool = True,
                    verify_load_trace: bool = True) -> ReplayResult:
    """The one verification step of every replay form, plus its cost.

    With ``verify``, checks final memory, each core's instruction count and
    registers and (with ``verify_load_trace``) a captured load trace
    against ``recording``; a mismatch raises :class:`ReplayDivergenceError`
    naming the culprit.  ``counts`` are costed by the Figure 13 model.
    """
    if verify:
        _verify_memory(memory, recording.final_memory, replayer)
        _verify_registers(contexts, recording, replayer)
        if verify_load_trace and recording.load_trace is not None:
            _verify_load_trace(contexts, recording, replayer)
    time = estimate_replay_time(counts, recording.config.replay_cost,
                                recorded_cpi=recorded_cpi(recording))
    return ReplayResult(
        variant=replayer.variant,
        counts=counts,
        time=time,
        final_memory={addr: value for addr, value in memory.items() if value},
        final_regs=[list(context.regs) for context in contexts],
        verified=verify,
    )


def _diverge(replayer: Replayer, *, kind: str, detail: str,
             core_id: int | None = None, chunk: int | None = None,
             addr: int | None = None, expected: int | None = None,
             observed: int | None = None) -> None:
    """Assemble forensics and raise, mirroring the mismatch to the tracer."""
    variant, tracer = replayer.variant, replayer.tracer
    bounds = checkpoint = hb_slice = inspect_hint = None
    if core_id is not None and chunk is not None:
        bounds = replayer.interval_bounds(core_id, chunk)
        inspect_hint = (
            f"python -m repro.tools inspect <run.json> "
            f"--variant {variant} --state-at {core_id}:{chunk} "
            f"--hb-slice {core_id}:{chunk}")
        graph = replayer.hb_graph
        if graph is not None and graph.has_node((core_id, chunk)):
            hb_slice = graph.slice((core_id, chunk))
        store = replayer.checkpoint_store
        position = replayer.index_of(core_id, chunk)
        if store is not None and position is not None:
            nearest = store.nearest(position + 1)
            if nearest is not None:
                checkpoint = (nearest.checkpoint_id, nearest.position)
    if tracer is not None:
        tracer.emit(DivergenceEvent(
            cycle=bounds[1] if bounds else 0,
            core_id=core_id if core_id is not None else -1,
            variant=variant, kind=kind,
            addr=addr if addr is not None else -1,
            expected=expected if expected is not None else 0,
            observed=observed if observed is not None else 0))
    raise_divergence(build_report(
        variant=variant, kind=kind, detail=detail, core_id=core_id,
        chunk=chunk, addr=addr, expected=expected, observed=observed,
        interval_bounds=bounds, tracer=tracer, checkpoint=checkpoint,
        hb_slice=hb_slice, inspect_hint=inspect_hint))


def _verify_memory(replayed: dict[int, int], recorded: dict[int, int],
                   replayer: Replayer) -> None:
    replayed_nz = {addr: value for addr, value in replayed.items() if value}
    if replayed_nz == recorded:
        return
    for addr in sorted(set(replayed_nz) | set(recorded)):
        got = replayed_nz.get(addr, 0)
        want = recorded.get(addr, 0)
        if got != want:
            writer = replayed.writers.get(addr)
            core_id, chunk = writer if writer is not None else (None, None)
            _diverge(replayer, kind="memory",
                     detail=f"memory diverged at {addr:#x}: "
                            f"replayed {got:#x}, recorded {want:#x}",
                     core_id=core_id, chunk=chunk, addr=addr,
                     expected=want, observed=got)


def _verify_registers(contexts: list[ThreadContext], recording,
                      replayer: Replayer) -> None:
    if len(recording.cores) != len(contexts):
        raise LogFormatError(
            f"recording holds the final state of {len(recording.cores)} "
            f"cores, the replay ran {len(contexts)}")
    for context, core in zip(contexts, recording.cores):
        if context.instructions_executed != core.instructions:
            _diverge(replayer, kind="instruction-count",
                     detail=f"core {core.core_id}: replayed "
                            f"{context.instructions_executed} instructions, "
                            f"recorded {core.instructions}",
                     core_id=core.core_id,
                     expected=core.instructions,
                     observed=context.instructions_executed)
        if context.regs != core.final_regs:
            diffs = [f"r{index}: replayed {got:#x} recorded {want:#x}"
                     for index, (got, want)
                     in enumerate(zip(context.regs, core.final_regs))
                     if got != want]
            _diverge(replayer, kind="registers",
                     detail=f"core {core.core_id} registers diverged: "
                            + "; ".join(diffs),
                     core_id=core.core_id)


def _verify_load_trace(contexts: list[ThreadContext], recording,
                       replayer: Replayer) -> None:
    for context, recorded in zip(contexts, recording.load_trace):
        recorded = sorted(recorded, key=lambda item: item[0])
        if context.load_values == [value for _seq, _addr, value in recorded]:
            continue
        for index, (got, (_seq, addr, want)) in enumerate(
                zip(context.load_values, recorded)):
            if got != want:
                _diverge(replayer, kind="load-trace",
                         detail=f"core {context.core_id}: load #{index} "
                                f"replayed {got:#x}, recorded {want:#x}",
                         core_id=context.core_id, addr=addr,
                         expected=want, observed=got)
        _diverge(replayer, kind="load-trace",
                 detail=f"core {context.core_id}: load count mismatch "
                        f"({len(context.load_values)} vs {len(recorded)})",
                 core_id=context.core_id)
