"""Scenario tests for the Memory Race Recorder, driven by synthetic events.

Fabricating perform/count/snoop events gives cycle-precise control over the
cases of Figure 4: in-order accesses, perform events moved across interval
boundaries (Opt), reordered loads/stores/RMWs, and interval termination
rules.  Events go through a :class:`RecorderBank`, the recorder's only
entry point, holding one variant (or, for the bank's own tests, several).
"""

import pytest

from repro.common.config import RecorderConfig, RecorderMode
from repro.common.errors import SimulationError
from repro.cpu.dynops import DynInstr
from repro.isa.instructions import Instruction, Opcode, RmwOp
from repro.mem.coherence import SnoopEvent
from repro.recorder.logfmt import (
    InorderBlock,
    IntervalFrame,
    ReorderedLoad,
    ReorderedRmw,
    ReorderedStore,
)
from repro.recorder.mrr import RecorderBank
from repro.recorder.traq import TraqEntry

LINE = 32


class Driver:
    """Feeds a one-recorder bank hand-crafted events."""

    def __init__(self, mode, *, cap=None, core_id=0):
        config = RecorderConfig(mode=mode, max_interval_instructions=cap)
        self.bank = RecorderBank(core_id, LINE, seed=3)
        self.recorder = self.bank.add("v", config)
        self.core_id = core_id
        self._seq = 0
        self._entry_id = 0

    def make(self, opcode, addr, *, value=0, store_value=0, nmi=0):
        instr = Instruction(opcode, dst=1,
                            src1=2 if opcode is not Opcode.LOAD else None,
                            rmw_op=RmwOp.FETCH_ADD if opcode is Opcode.RMW
                            else None,
                            addr_offset=addr)
        dyn = DynInstr(self.core_id, self._seq, instr, self._seq, 0)
        self._seq += 1
        dyn.addr = addr
        dyn.mem_value = value
        dyn.src_values["data"] = store_value
        entry = TraqEntry(dyn, nmi, dyn.seq, self._entry_id)
        self._entry_id += 1
        return dyn, entry

    def perform(self, dyn, cycle):
        self.bank.on_perform(dyn, cycle, out_of_order=False)

    def count(self, entry, cycle):
        self.bank.on_count(entry, cycle)

    def remote_write(self, addr, cycle, requester=1):
        self.bank.on_transaction(SnoopEvent(cycle, requester,
                                            addr // LINE, True))

    def remote_read(self, addr, cycle, requester=1):
        self.bank.on_transaction(SnoopEvent(cycle, requester,
                                            addr // LINE, False))

    def finish(self, cycle=1000):
        self.bank.finish(cycle)
        return self.recorder.entries


class TestInOrderPath:
    @pytest.mark.parametrize("mode", [RecorderMode.BASE, RecorderMode.OPT])
    def test_perform_and_count_same_interval(self, mode):
        driver = Driver(mode)
        dyn, entry = driver.make(Opcode.LOAD, 0x100)
        driver.perform(dyn, 10)
        driver.count(entry, 20)
        entries = driver.finish()
        assert entries == [InorderBlock(1), IntervalFrame(0, 1000)]
        assert driver.recorder.stats.reordered_total == 0

    def test_nmi_counts_whole_instructions(self):
        driver = Driver(RecorderMode.BASE)
        dyn, entry = driver.make(Opcode.LOAD, 0x100, nmi=5)
        driver.perform(dyn, 10)
        driver.count(entry, 20)
        entries = driver.finish()
        assert entries[0] == InorderBlock(6)  # 5 non-memory + the load

    def test_own_transactions_ignored(self):
        driver = Driver(RecorderMode.BASE)
        dyn, entry = driver.make(Opcode.LOAD, 0x100)
        driver.perform(dyn, 10)
        driver.remote_write(0x100, 15, requester=driver.core_id)  # our own
        driver.count(entry, 20)
        entries = driver.finish()
        assert driver.recorder.stats.reordered_total == 0
        assert entries[0] == InorderBlock(1)


class TestConflictTermination:
    def test_remote_write_hits_read_signature(self):
        driver = Driver(RecorderMode.BASE)
        dyn, entry = driver.make(Opcode.LOAD, 0x100)
        driver.perform(dyn, 10)
        driver.count(entry, 12)
        driver.remote_write(0x100, 20)
        assert driver.recorder.stats.conflict_terminations == 1
        assert driver.recorder.cisn == 1
        entries = driver.finish()
        assert entries[:2] == [InorderBlock(1), IntervalFrame(0, 20)]

    def test_remote_read_hits_write_signature_only(self):
        driver = Driver(RecorderMode.BASE)
        load_dyn, load_entry = driver.make(Opcode.LOAD, 0x100)
        driver.perform(load_dyn, 10)
        driver.count(load_entry, 12)
        driver.remote_read(0x100, 20)  # read vs read: no conflict
        assert driver.recorder.stats.conflict_terminations == 0

        store_dyn, store_entry = driver.make(Opcode.STORE, 0x200)
        driver.perform(store_dyn, 30)
        driver.count(store_entry, 32)
        driver.remote_read(0x200, 40)  # read vs write: conflict
        assert driver.recorder.stats.conflict_terminations == 1

    def test_empty_interval_not_logged(self):
        driver = Driver(RecorderMode.BASE)
        # Conflict against an empty signature cannot happen through
        # on_transaction; exercise the guard via finish() on a fresh
        # recorder.
        assert driver.finish() == []
        assert driver.recorder.cisn == 0

    def test_size_cap_terminates(self):
        driver = Driver(RecorderMode.BASE, cap=4)
        dyns = [driver.make(Opcode.LOAD, 0x100 + 8 * i, nmi=1)
                for i in range(4)]
        for dyn, entry in dyns:
            driver.perform(dyn, 10)
            driver.count(entry, 12)
        # 4 counted entries x 2 instructions = 8 >= 2 caps of 4.
        assert driver.recorder.stats.size_terminations == 2
        entries = driver.finish()
        frames = [e for e in entries if isinstance(e, IntervalFrame)]
        assert [frame.cisn for frame in frames] == [0, 1]


class TestReorderedEntries:
    def test_base_reordered_load(self):
        driver = Driver(RecorderMode.BASE)
        anchor, anchor_entry = driver.make(Opcode.LOAD, 0x300)
        victim, victim_entry = driver.make(Opcode.LOAD, 0x100, value=0xBEEF)
        driver.perform(anchor, 10)
        driver.perform(victim, 11)
        driver.count(anchor_entry, 12)
        driver.remote_write(0x300, 15)       # terminates interval 0
        driver.count(victim_entry, 20)       # counted in interval 1
        entries = driver.finish()
        assert InorderBlock(1) in entries
        assert ReorderedLoad(0xBEEF) in entries
        assert driver.recorder.stats.reordered_loads == 1

    def test_opt_moves_unobserved_access(self):
        """Same timeline as above, but Opt's Snoop Table shows nothing
        touched 0x100 between perform and counting -> stays in order."""
        driver = Driver(RecorderMode.OPT)
        anchor, anchor_entry = driver.make(Opcode.LOAD, 0x300)
        victim, victim_entry = driver.make(Opcode.LOAD, 0x100, value=0xBEEF)
        driver.perform(anchor, 10)
        driver.perform(victim, 11)
        driver.count(anchor_entry, 12)
        driver.remote_write(0x300, 15)
        driver.count(victim_entry, 20)
        entries = driver.finish()
        assert driver.recorder.stats.reordered_total == 0
        assert driver.recorder.stats.moved_across_intervals == 1
        # Both loads end up as in-order instructions; one block per interval.
        blocks = [e for e in entries if isinstance(e, InorderBlock)]
        assert [b.size for b in blocks] == [1, 1]

    def test_opt_moved_access_joins_new_signature(self):
        driver = Driver(RecorderMode.OPT)
        anchor, anchor_entry = driver.make(Opcode.LOAD, 0x300)
        victim, victim_entry = driver.make(Opcode.LOAD, 0x100)
        driver.perform(anchor, 10)
        driver.perform(victim, 11)
        driver.count(anchor_entry, 12)
        driver.remote_write(0x300, 15)
        driver.count(victim_entry, 20)  # moved into interval 1's signature
        driver.remote_write(0x100, 25)  # must now conflict with interval 1
        assert driver.recorder.stats.conflict_terminations == 2

    def test_opt_detects_observed_access(self):
        driver = Driver(RecorderMode.OPT)
        anchor, anchor_entry = driver.make(Opcode.LOAD, 0x300)
        victim, victim_entry = driver.make(Opcode.LOAD, 0x100, value=0xAA)
        driver.perform(anchor, 10)
        driver.perform(victim, 11)
        driver.count(anchor_entry, 12)
        driver.remote_write(0x100, 14)   # observed! (also conflicts read sig)
        driver.count(victim_entry, 20)
        assert driver.recorder.stats.reordered_loads == 1
        assert ReorderedLoad(0xAA) in driver.finish()

    def test_base_reordered_store_offset(self):
        driver = Driver(RecorderMode.BASE)
        anchor, anchor_entry = driver.make(Opcode.LOAD, 0x300)
        store, store_entry = driver.make(Opcode.STORE, 0x100, store_value=77)
        driver.perform(anchor, 10)
        driver.perform(store, 11)        # performs in interval 0
        driver.count(anchor_entry, 12)
        driver.remote_write(0x300, 15)   # -> interval 1
        # Another anchor creates content in interval 1, then another boundary.
        anchor2, anchor2_entry = driver.make(Opcode.LOAD, 0x400)
        driver.perform(anchor2, 16)
        driver.count(anchor2_entry, 17)
        driver.remote_write(0x400, 18)   # -> interval 2
        driver.count(store_entry, 20)    # counted in interval 2: offset 2
        entries = driver.finish()
        stores = [e for e in entries if isinstance(e, ReorderedStore)]
        assert stores == [ReorderedStore(0x100, 77, 2)]

    def test_reordered_rmw_logs_old_and_new(self):
        driver = Driver(RecorderMode.BASE)
        anchor, anchor_entry = driver.make(Opcode.LOAD, 0x300)
        rmw, rmw_entry = driver.make(Opcode.RMW, 0x100, value=10,
                                     store_value=5)
        driver.perform(anchor, 10)
        driver.perform(rmw, 11)
        driver.count(anchor_entry, 12)
        driver.remote_write(0x300, 15)
        driver.count(rmw_entry, 20)
        entries = driver.finish()
        rmws = [e for e in entries if isinstance(e, ReorderedRmw)]
        assert rmws == [ReorderedRmw(old_value=10, new_value=15, addr=0x100,
                                     offset=1)]

    def test_figure4_example(self):
        """The paper's Figure 4(e)/(f): 8 accesses counted in one interval,
        a LD and ST of them performed in an older interval; Base logs
        IB(2), ReorderedLoad, IB(2), ReorderedStore, IB(2)."""
        driver = Driver(RecorderMode.BASE)
        old_load, old_load_entry = driver.make(Opcode.LOAD, 0x100, value=3)
        old_store, old_store_entry = driver.make(Opcode.STORE, 0x180,
                                                 store_value=9)
        # i1..i6 dispatched after LD/ST but before/around their counting.
        others = [driver.make(Opcode.LOAD, 0x200 + 8 * i) for i in range(6)]
        driver.perform(old_load, 5)
        driver.perform(old_store, 6)
        # Interval 0 terminates via a conflict on the load's address (so
        # both stay "reordered" in Base and genuinely observed for Opt).
        driver.remote_write(0x100, 8)
        driver.remote_write(0x180, 9)
        # Now the new interval: i1, i2 count, then LD, then i3, i4, then ST,
        # then i5, i6 — counting strictly in program order means the paper's
        # layout arises from NMI bookkeeping; emulate with interleaving.
        for dyn, _entry in others:
            driver.perform(dyn, 12)
        driver.count(others[0][1], 20)
        driver.count(others[1][1], 20)
        driver.count(old_load_entry, 21)
        driver.count(others[2][1], 22)
        driver.count(others[3][1], 22)
        driver.count(old_store_entry, 23)
        driver.count(others[4][1], 24)
        driver.count(others[5][1], 24)
        entries = driver.finish()
        body = [e for e in entries if not isinstance(e, IntervalFrame)]
        assert body == [
            InorderBlock(2),
            ReorderedLoad(3),
            InorderBlock(2),
            ReorderedStore(0x180, 9, 1),
            InorderBlock(2),
        ]


class TestFinish:
    def test_leftover_pending_rejected(self):
        driver = Driver(RecorderMode.BASE)
        dyn, _entry = driver.make(Opcode.LOAD, 0x100)
        driver.perform(dyn, 10)
        with pytest.raises(SimulationError):
            driver.finish()

    def test_offset_overflow_rejected(self):
        driver = Driver(RecorderMode.BASE)
        dyn, entry = driver.make(Opcode.STORE, 0x100, store_value=1)
        driver.perform(dyn, 1)
        driver.recorder.cisn += 1 << 16  # simulate 65k interval turnovers
        with pytest.raises(SimulationError):
            driver.count(entry, 2)


class TestDirtyEviction:
    @staticmethod
    def recorder(**overrides):
        bank = RecorderBank(0, LINE, seed=3)
        return bank, bank.add("v", RecorderConfig(mode=RecorderMode.OPT,
                                                  **overrides))

    def test_eviction_increments_snoop_table_when_enabled(self):
        bank, recorder = self.recorder(dirty_eviction_snoop_increment=True)
        snapshot = recorder.snoop_table.sample(0x100 // LINE)
        bank.on_dirty_eviction(5, 0, 0x100 // LINE)
        assert recorder.snoop_table.conflicts_since(0x100 // LINE, snapshot)

    def test_eviction_ignored_when_disabled(self):
        bank, recorder = self.recorder()
        snapshot = recorder.snoop_table.sample(0x100 // LINE)
        bank.on_dirty_eviction(5, 0, 0x100 // LINE)
        assert not recorder.snoop_table.conflicts_since(0x100 // LINE,
                                                        snapshot)

    def test_other_cores_evictions_ignored(self):
        bank, recorder = self.recorder(dirty_eviction_snoop_increment=True)
        snapshot = recorder.snoop_table.sample(0x100 // LINE)
        bank.on_dirty_eviction(5, 2, 0x100 // LINE)
        assert not recorder.snoop_table.conflicts_since(0x100 // LINE,
                                                        snapshot)
