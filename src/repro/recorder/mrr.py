"""The per-processor Memory Race Recorder (Sections 3 and 4, Figure 6).

:class:`RecorderBank` is one processor's MRR module (Figure 6(a)): the only
sink of the core's perform/counting events and the only listener on its
snoop path.  It drives any number of :class:`RelaxReplayRecorder` variants
(Base/Opt x interval caps) that record the same execution at once, which is
how the evaluation sweeps are run.  Recording is *passive*, so every variant
sees the same event stream.

Each variant forms intervals (QuickRec-style scalar-timestamp ordering: an
interval terminates when an incoming coherence transaction conflicts with
its read/write signatures, or when the configured maximum interval size is
reached) and emits the interval log of Figure 6(c).  It keeps its own CISN
stream, signatures, per-entry PISN / Snoop Count metadata, log and stats.
The work that depends only on the shared stream the bank does once per
event: the requester check, the signature mask of a line, and the Snoop
Table.  Opt variants with the same table config share one
:class:`~repro.recorder.snoop_table.SnoopTable`, because a table's state
depends only on the transactions the core observed, its config and its
seed.  A transaction reaches the variants' conflict checks only when it
hits the union of their signatures (:class:`SignatureUnion`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.bloom import BloomSignature
from ..common.config import RecorderConfig, RecorderMode
from ..common.errors import SimulationError
from ..cpu.dynops import DynInstr
from ..isa.instructions import Opcode
from ..isa.semantics import eval_rmw
from ..mem.coherence import SnoopEvent
from ..obs.events import ChunkCutEvent
from .logfmt import (
    InorderBlock,
    IntervalFrame,
    LogEntry,
    ReorderedLoad,
    ReorderedRmw,
    ReorderedStore,
    entry_bit_size,
)
from .snoop_table import SnoopTable
from .traq import TraqEntry

__all__ = ["RecorderBank", "RecorderStats", "RelaxReplayRecorder",
           "SignatureUnion"]


@dataclass
class RecorderStats:
    """Aggregate counters for the evaluation figures."""

    mem_counted: int = 0
    instructions_counted: int = 0
    inorder_mem: int = 0
    moved_across_intervals: int = 0   # Opt: perform moved past >=1 boundary
    reordered_loads: int = 0
    reordered_stores: int = 0
    reordered_rmws: int = 0
    inorder_blocks: int = 0
    frames: int = 0
    log_bits: int = 0
    conflict_terminations: int = 0
    size_terminations: int = 0
    eviction_terminations: int = 0
    # Coverage signals for the adversarial fuzzer (repro.fuzz): summed
    # read+write signature set-bit count sampled at every interval cut
    # (occupancy), conflict cuts whose line was NOT in the exact address
    # sets (pure Bloom aliasing), and Snoop Table transaction observations.
    signature_set_bits: int = 0
    signature_alias_terminations: int = 0
    snoop_observed: int = 0
    entry_bits_by_type: dict[str, int] = field(default_factory=dict)
    # Line address -> number of conflicting incoming transactions that
    # terminated an interval because of it (contention hot spots).
    conflict_lines: dict[int, int] = field(default_factory=dict)

    #: Plain additive counters (everything except the dict-valued fields).
    COUNTER_FIELDS = (
        "mem_counted", "instructions_counted", "inorder_mem",
        "moved_across_intervals", "reordered_loads", "reordered_stores",
        "reordered_rmws", "inorder_blocks", "frames", "log_bits",
        "conflict_terminations", "size_terminations",
        "eviction_terminations", "signature_set_bits",
        "signature_alias_terminations", "snoop_observed",
    )
    #: Dict-valued fields merged key-wise.
    DICT_FIELDS = ("entry_bits_by_type", "conflict_lines")

    def merge(self, other: "RecorderStats") -> None:
        """Fold another core's stats into this accumulator."""
        for name in self.COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in self.DICT_FIELDS:
            merged = getattr(self, name)
            for key, value in getattr(other, name).items():
                merged[key] = merged.get(key, 0) + value

    @classmethod
    def merged(cls, per_core) -> "RecorderStats":
        """A variant's stats merged over its cores, folded in the given
        (core) order, which fixes the key order of the dict fields."""
        total = cls()
        for stats in per_core:
            total.merge(stats)
        return total

    def counters(self) -> dict[str, int]:
        """Flat counter dict for the metrics registry."""
        return {name: getattr(self, name) for name in self.COUNTER_FIELDS}

    @property
    def reordered_total(self) -> int:
        return self.reordered_loads + self.reordered_stores + self.reordered_rmws

    @property
    def reordered_fraction(self) -> float:
        return self.reordered_total / self.mem_counted if self.mem_counted else 0.0

    def bits_per_kilo_instruction(self) -> float:
        if not self.instructions_counted:
            return 0.0
        return self.log_bits * 1000.0 / self.instructions_counted


class RelaxReplayRecorder:
    """One recorder variant of one core.

    Built by :meth:`RecorderBank.add`, which hands it the bank's shared
    Snoop Table and signature union; the bank delivers its events.
    """

    def __init__(self, core_id: int, config: RecorderConfig, line_bytes: int,
                 union: "SignatureUnion", *, seed: int = 0,
                 name: str | None = None, dependence_tracker=None,
                 snoop_table: SnoopTable | None = None):
        self.core_id = core_id
        self.config = config
        self.line_bytes = line_bytes
        # Optional Cyrus-style pairwise ordering (repro.recorder.ordering):
        # when set, conflict-driven terminations record an interval edge to
        # the requester's current interval, enabling parallel replay.
        self.dependence_tracker = dependence_tracker
        if dependence_tracker is not None:
            dependence_tracker.register(core_id, self)
        cap = self._cap = config.max_interval_instructions
        self.name = name or (
            f"{config.mode.value}_{'INF' if cap is None else str(cap)}")

        self.read_sig = BloomSignature(config.signature_banks,
                                       config.signature_bits_per_bank, seed=seed)
        self.write_sig = BloomSignature(config.signature_banks,
                                        config.signature_bits_per_bank, seed=seed)
        # Opt only; shared with the bank's other variants of the same
        # table config.
        self.snoop_table = snoop_table
        self._union = union

        self.cisn = 0                      # full (unwrapped) interval number
        self.block_size = 0                # Current InorderBlock Size count
        self.counted_in_interval = 0       # instructions counted this interval
        self.performs_in_interval = 0
        self.entries_in_interval = 0
        self.entries: list[LogEntry] = []
        self.stats = RecorderStats()
        # Optional structured trace bus (None keeps recording untraced).
        self.tracer = None

        # Per-in-flight-instruction recorder state (the PISN and Snoop Count
        # fields of the TRAQ entry, Figure 6(b)), keyed by dynamic seq.
        self._pisn: dict[int, int] = {}
        self._snoop_sample: dict[int, tuple[int, ...]] = {}
        # Patch-target clamping (reproduction refinement, see DESIGN.md):
        # line -> count-interval of the latest access whose perform event was
        # *moved* across interval boundaries.  A younger same-line store
        # patched to an interval before that point would replay before the
        # moved access — inverting same-processor same-address order — so
        # reordered stores clamp their effective perform interval to it.
        self._moved_line_cisn: dict[int, int] = {}
        # Interval-timestamp floor.  When this core's own transaction
        # commits at cycle T, any remote interval it conflict-terminates is
        # stamped T — so the interval containing this access must stamp
        # strictly later, or the (timestamp, core_id) tie-break could
        # replay the dependent interval first (hypothesis seed 1679).
        # config.interval_timestamp_floor=False (fuzzer test hook only)
        # re-introduces the pre-fix behavior.
        self._timestamp_floor = 0
        # Exact per-interval line sets shadowing the Bloom signatures —
        # statistics only (signature aliasing detection); correctness
        # always goes through the signatures.
        self._exact_read_lines: set[int] = set()
        self._exact_write_lines: set[int] = set()
        # Index of this variant's table in the bank's per-perform samples
        # (-1 for Base, which has none); set by the bank.
        self._table_index = -1

    # ---------------------------------------------------- core-side events
    # The perform event (PISN stamp, Snoop Table sample, signature insert)
    # is applied by RecorderBank.on_perform for all variants at once.

    def _insert_signature(self, dyn: DynInstr, line: int) -> None:
        """Add a moved access's line to the current signatures (and so to
        the bank's union)."""
        union = self._union
        mask = union.mask_for(line)
        if dyn.opcode is not Opcode.STORE:  # loads and RMWs read
            self.read_sig.bits |= mask
            self._exact_read_lines.add(line)
            union.read |= mask
        if dyn.opcode is not Opcode.LOAD:   # stores and RMWs write
            self.write_sig.bits |= mask
            self._exact_write_lines.add(line)
            union.write |= mask

    def on_count(self, entry: TraqEntry, cycle: int) -> None:
        """The in-order counting step (Section 3.3): classify the entry as
        in-order or reordered and extend the interval log accordingly."""
        dyn = entry.dyn
        nmi = entry.nmi
        stats = self.stats
        if dyn is None:  # an NMI filler group
            self.block_size += nmi
            self.counted_in_interval += nmi
            stats.instructions_counted += nmi
        else:
            pisn = self._pisn.pop(dyn.seq)
            table = self.snoop_table
            snapshot = None if table is None else self._snoop_sample.pop(dyn.seq)
            reordered = False
            if pisn != self.cisn:
                line = dyn.addr // self.line_bytes
                if table is None or table.conflicts_since(line, snapshot):
                    # Base logs every access performed in an older
                    # interval; Opt only when the Snoop Table may have
                    # seen a conflicting transaction since the perform.
                    reordered = True
                else:
                    # Perform event moved across interval boundaries: the
                    # access now belongs to the current interval, so its
                    # address joins the current signatures (Section 4.2)
                    # and later same-line patched stores may not land
                    # before this interval.
                    self._insert_signature(dyn, line)
                    self._moved_line_cisn[line] = self.cisn
                    stats.moved_across_intervals += 1

            stats.mem_counted += 1
            stats.instructions_counted += nmi + 1
            self.counted_in_interval += nmi + 1
            if reordered:
                self.block_size += nmi
                self._flush_block()
                self._append(self._reordered_entry(dyn, pisn))
            else:
                stats.inorder_mem += 1
                self.block_size += nmi + 1

        cap = self._cap
        if cap is not None and self.counted_in_interval >= cap:
            stats.size_terminations += 1
            self._terminate_interval(cycle, "size-cap")

    def _reordered_entry(self, dyn: DynInstr, pisn: int) -> LogEntry:
        if dyn.opcode is Opcode.LOAD:
            self.stats.reordered_loads += 1
            return ReorderedLoad(dyn.mem_value)
        # Stores/RMWs are patched back `offset` intervals during replay.
        # Clamp the target so the relocated write never jumps over a moved
        # same-line access counted earlier (which replays in its counting
        # interval but performed *before* this store).  Clamping is safe:
        # the first remote access to observe this store's value necessarily
        # arrived after that moved access was counted (or the Snoop Table
        # would have caught it), hence after the clamped interval terminated.
        line = dyn.addr // self.line_bytes
        effective_pisn = max(pisn, self._moved_line_cisn.get(line, -1))
        offset = self.cisn - effective_pisn
        if offset >= (1 << 16):
            raise SimulationError(
                f"reordered-store offset {offset} overflows the log field")
        if dyn.opcode is Opcode.STORE:
            self.stats.reordered_stores += 1
            return ReorderedStore(dyn.addr, dyn.source_value("data"), offset)
        self.stats.reordered_rmws += 1
        new_value = eval_rmw(dyn.instr.rmw_op, dyn.mem_value,
                             dyn.src_values.get("data"), dyn.instr.imm)
        return ReorderedRmw(dyn.mem_value, new_value, dyn.addr, offset)

    # --------------------------------------------------- bus-side events
    # RecorderBank.on_transaction handles the requester check, the weak
    # ordering edge and the Snoop Table; a variant sees only the
    # transactions that may hit its signatures.

    def _snoop_conflict(self, event: SnoopEvent, mask: int) -> None:
        """Terminate the interval if a remote transaction whose line has
        signature mask ``mask`` conflicts with the interval's signatures."""
        conflict = self.write_sig.bits & mask == mask or (
            event.is_write and self.read_sig.bits & mask == mask)
        if not conflict:
            return
        line = event.line_addr
        self.stats.conflict_terminations += 1
        if (line not in self._exact_write_lines
                and not (event.is_write and line in self._exact_read_lines)):
            # The signatures fired but the exact sets say the line was
            # never touched: a pure Bloom false positive cut an interval
            # early (rare-state coverage signal).
            self.stats.signature_alias_terminations += 1
        lines = self.stats.conflict_lines
        lines[line] = lines.get(line, 0) + 1
        if self.dependence_tracker is not None:
            # The terminating interval is the dependence *source*; the
            # requester's access performs into its current interval.
            self.dependence_tracker.record_conflict(
                self.core_id, self.cisn, event.requester)
        self._terminate_interval(event.cycle, "conflict")

    def _evict(self, cycle: int, mask: int) -> None:
        """Directory mode (Section 4.3): an owned line with signature mask
        ``mask`` left this core's cache.  We can no longer observe
        conflicts on it, so close the interval if the line is in the
        signatures — any future access to it is thereby ordered after us."""
        if (self.read_sig.bits & mask == mask
                or self.write_sig.bits & mask == mask):
            self.stats.eviction_terminations += 1
            self._terminate_interval(cycle, "eviction")

    # -------------------------------------------------- interval handling

    def _terminate_interval(self, cycle: int, reason: str) -> None:
        self._flush_block()
        if self.entries_in_interval == 0 and self.performs_in_interval == 0:
            # Nothing happened: no ordering obligation, keep CISN stable so
            # logged frames stay consecutive.
            return
        timestamp = (max(cycle, self._timestamp_floor)
                     if self.config.interval_timestamp_floor else cycle)
        self.stats.signature_set_bits += (self.read_sig.set_bits
                                          + self.write_sig.set_bits)
        if self.tracer is not None:
            self.tracer.emit(ChunkCutEvent(
                cycle=timestamp, core_id=self.core_id, variant=self.name,
                cisn=self.cisn, reason=reason,
                entries=self.entries_in_interval,
                instructions=self.counted_in_interval))
        self._append(IntervalFrame(self.cisn, timestamp))
        self.stats.frames += 1
        self.cisn += 1
        self.read_sig.clear()
        self.write_sig.clear()
        self._union.refresh()
        self._exact_read_lines.clear()
        self._exact_write_lines.clear()
        self.counted_in_interval = 0
        self.performs_in_interval = 0
        self.entries_in_interval = 0

    def _flush_block(self) -> None:
        if self.block_size > 0:
            self._append(InorderBlock(self.block_size))
            self.stats.inorder_blocks += 1
            self.block_size = 0

    def _append(self, entry: LogEntry) -> None:
        self.entries.append(entry)
        self.entries_in_interval += 1
        bits = entry_bit_size(entry, self.config)
        self.stats.log_bits += bits
        kind = type(entry).__name__
        by_type = self.stats.entry_bits_by_type
        by_type[kind] = by_type.get(kind, 0) + bits

    def finish(self, cycle: int) -> None:
        """Terminate the final interval at the end of execution."""
        if self._pisn:
            raise SimulationError(
                f"recorder {self.name} core {self.core_id}: "
                f"{len(self._pisn)} accesses performed but never counted")
        self._terminate_interval(cycle, "end")


class SignatureUnion:
    """The OR of the read and of the write signatures of the variants in
    one bank that share a signature geometry (and so a mask per line).

    Each member's signature bits are a subset of the union's, so a line
    that misses the union misses every member: the bank tests the union
    once per transaction and runs the members' conflict checks only on a
    hit.  Inserts OR into the union as well; an interval cut shrinks a
    member's signatures, after which :meth:`refresh` recomputes the union.
    """

    __slots__ = ("members", "masks", "mask_for", "read", "write")

    def __init__(self, signature: BloomSignature):
        self.members: list[RelaxReplayRecorder] = []
        # The geometry's shared line -> mask cache, and its fill path.
        self.masks = signature.masks
        self.mask_for = signature.mask_for
        self.read = 0
        self.write = 0

    def refresh(self) -> None:
        """Recompute the union from the members' current signatures."""
        read = write = 0
        for member in self.members:
            read |= member.read_sig.bits
            write |= member.write_sig.bits
        self.read = read
        self.write = write


class RecorderBank:
    """The MRR module of one core: every RelaxReplay variant recording the
    core, behind one core sink and one snoop-path listener.

    The bank does the work the variants share once per event: the
    requester check and the Snoop Table update of each transaction, the
    line's signature mask, and the table samples of each perform.  Opt
    variants share one :class:`SnoopTable` per distinct ``(arrays,
    entries, counter bits, seed, dirty-eviction increment)``.  The
    per-variant state — CISN, signatures, exact line sets, PISN and
    samples, log and stats — stays in each :class:`RelaxReplayRecorder`.
    """

    def __init__(self, core_id: int, line_bytes: int, *, seed: int = 0):
        self.core_id = core_id
        self.line_bytes = line_bytes
        self.seed = seed
        self.recorders: list[RelaxReplayRecorder] = []
        self._tables: dict[tuple, SnoopTable] = {}
        self._unions: dict[tuple[int, int], SignatureUnion] = {}
        self._tracer = None
        self._wire()

    def add(self, name: str, config: RecorderConfig, *,
            dependence_tracker=None) -> RelaxReplayRecorder:
        """Attach a new variant to this core and return its recorder."""
        config.validate()
        table = None
        if config.mode is RecorderMode.OPT:
            key = (config.snoop_table_arrays, config.snoop_table_entries,
                   config.snoop_table_counter_bits, self.seed,
                   config.dirty_eviction_snoop_increment)
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = SnoopTable(config, seed=self.seed)
        geometry = (config.signature_banks, config.signature_bits_per_bank)
        union = self._unions.get(geometry)
        if union is None:
            union = self._unions[geometry] = SignatureUnion(
                BloomSignature(*geometry, seed=self.seed))
        recorder = RelaxReplayRecorder(
            self.core_id, config, self.line_bytes, union, seed=self.seed,
            name=name, dependence_tracker=dependence_tracker,
            snoop_table=table)
        recorder.tracer = self._tracer
        union.members.append(recorder)
        self.recorders.append(recorder)
        self._wire()
        return recorder

    def _wire(self) -> None:
        """Precompute the per-event fan-out lists."""
        recorders = self.recorders
        self._table_list = list(self._tables.values())
        self._union_list = list(self._unions.values())
        for recorder in recorders:
            if recorder.snoop_table is not None:
                recorder._table_index = self._table_list.index(
                    recorder.snoop_table)
        self._floored = [recorder for recorder in recorders
                         if recorder.config.interval_timestamp_floor]
        self._tracked = [recorder for recorder in recorders
                         if recorder.dependence_tracker is not None]
        self._observer_stats = [recorder.stats for recorder in recorders
                                if recorder.snoop_table is not None]
        # A table's last key field is its dirty_eviction_snoop_increment.
        self._eviction_tables = [table for key, table in self._tables.items()
                                 if key[-1]]
        self._eviction_cutters = [recorder for recorder in recorders
                                  if recorder.config.dirty_eviction_terminates]

    @property
    def tracer(self):
        """Structured trace bus of the variants' chunk cuts (None: off)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        for recorder in self.recorders:
            recorder.tracer = tracer

    # ---------------------------------------------------- core-side events

    def on_perform(self, dyn: DynInstr, cycle: int, out_of_order: bool) -> None:
        """Record the perform event in every variant: stamp the PISN, keep
        the Snoop Table sample and insert the line into the signatures."""
        del cycle, out_of_order  # metric collectors use them; MRRs do not
        line = dyn.addr // self.line_bytes
        seq = dyn.seq
        samples = [table.sample(line) for table in self._table_list]
        reads = dyn.opcode is not Opcode.STORE   # loads and RMWs
        writes = dyn.opcode is not Opcode.LOAD   # stores and RMWs
        for union in self._union_list:
            mask = union.masks.get(line) or union.mask_for(line)
            if reads:
                union.read |= mask
            if writes:
                union.write |= mask
            for recorder in union.members:
                recorder._pisn[seq] = recorder.cisn
                if recorder._table_index >= 0:
                    recorder._snoop_sample[seq] = samples[recorder._table_index]
                if reads:
                    recorder.read_sig.bits |= mask
                    recorder._exact_read_lines.add(line)
                if writes:
                    recorder.write_sig.bits |= mask
                    recorder._exact_write_lines.add(line)
                recorder.performs_in_interval += 1

    def on_count(self, entry: TraqEntry, cycle: int) -> None:
        """The in-order counting step, in every variant."""
        for recorder in self.recorders:
            recorder.on_count(entry, cycle)

    # --------------------------------------------------- bus-side events

    def on_transaction(self, event: SnoopEvent) -> None:
        """Observe a committed coherence transaction once for every
        variant: Snoop Table updates, then the conflict checks of the
        variants whose signatures it may hit."""
        if event.requester == self.core_id:
            floor = event.cycle + 1
            for recorder in self._floored:
                if recorder._timestamp_floor < floor:
                    recorder._timestamp_floor = floor
            return
        for recorder in self._tracked:
            # Weak ordering edge: the requester follows everything this
            # processor already closed (see DependenceTracker).
            recorder.dependence_tracker.record_observation(
                self.core_id, recorder.cisn - 1, event.requester)
        line = event.line_addr
        for table in self._table_list:
            table.observe(line)
        for stats in self._observer_stats:
            stats.snoop_observed += 1
        for union in self._union_list:
            mask = union.masks.get(line) or union.mask_for(line)
            if (union.write & mask == mask
                    or (event.is_write and union.read & mask == mask)):
                for recorder in union.members:
                    recorder._snoop_conflict(event, mask)

    def on_dirty_eviction(self, cycle: int, core_id: int, line_addr: int) -> None:
        """Section 4.3: conservatively account for an owned-line eviction
        of this core (Snoop Table bump and, in directory mode, interval
        closure)."""
        if core_id != self.core_id:
            return
        for table in self._eviction_tables:
            table.observe(line_addr)
        for recorder in self._eviction_cutters:
            recorder._evict(cycle, recorder._union.mask_for(line_addr))

    def finish(self, cycle: int) -> None:
        """Terminate every variant's final interval at the end of execution."""
        for recorder in self.recorders:
            recorder.finish(cycle)
