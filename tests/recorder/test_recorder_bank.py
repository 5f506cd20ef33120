"""Tests for :class:`RecorderBank`, the one recorder sink and snoop listener
of a core.

The bank shares work between the variants it drives — one requester
check, one signature union test and one Snoop Table per table config — so
these tests pin down that the sharing changes nothing a variant records:
a variant recorded alone logs what it logs beside the others, the union
prefilter never hides a conflict, and shared tables see every increment.
"""

from dataclasses import replace

import pytest

from repro.common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    L1Config,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from repro.harness.runner import VARIANTS, baseline_factories_for
from repro.isa.instructions import Opcode
from repro.mem.coherence import SnoopEvent
from repro.mem.memsys import MemorySystem
from repro.recorder.mrr import RecorderBank, RelaxReplayRecorder
from repro.recorder.ordering import DependenceTracker, IntervalEdge
from repro.sim import Machine
from repro.sim.serialize import run_result_to_dict
from repro.workloads import build_workload, random_program
from repro.workloads.litmus import LITMUS_TESTS, litmus_program

from .test_mrr import LINE, Driver

OPT = RecorderMode.OPT


@pytest.fixture
def listeners(monkeypatch):
    """Every coherence listener the machine registers, in order."""
    seen = []
    original = MemorySystem.add_listener

    def add_listener(self, listener):
        seen.append(listener)
        original(self, listener)

    monkeypatch.setattr(MemorySystem, "add_listener", add_listener)
    return seen


class TestVariantSubsets:
    """Recording is passive: a variant recorded alone gives the same
    serialized output as the same variant recorded beside all the others."""

    @staticmethod
    def assert_subsets_match(config, program):
        edges = config.protocol is CoherenceProtocol.SNOOPY
        full = run_result_to_dict(Machine(config, VARIANTS).run(
            program, collect_dependence_edges=edges))
        for variant, recorder_config in VARIANTS.items():
            alone = run_result_to_dict(Machine(
                config, {variant: recorder_config}).run(
                    program, collect_dependence_edges=edges))
            for key in ("cores", "cycles", "final_memory"):
                assert alone[key] == full[key], (variant, key)
            assert alone["recordings"][variant] == \
                full["recordings"][variant], variant
            if edges:
                assert alone["dependence_edges"][variant] == \
                    full["dependence_edges"][variant], variant

    @pytest.mark.parametrize("protocol", list(CoherenceProtocol))
    @pytest.mark.parametrize("model", list(ConsistencyModel))
    @pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
    def test_litmus(self, name, model, protocol):
        test = LITMUS_TESTS[name]
        program = litmus_program(test, (0, 2, 1, 3)[:len(test.threads)])
        config = replace(MachineConfig(num_cores=len(test.threads), seed=4),
                         consistency=model, protocol=protocol)
        self.assert_subsets_match(config, program)

    @pytest.mark.parametrize("protocol", list(CoherenceProtocol))
    def test_contended_workload(self, protocol):
        """Dense conflicts, size cuts and moved accesses in every variant."""
        program = build_workload("radix", num_threads=4, scale=0.1, seed=3)
        config = replace(MachineConfig(num_cores=4, seed=3),
                         consistency=ConsistencyModel.RC, protocol=protocol)
        self.assert_subsets_match(config, program)


class TestUnionPrefilter:
    def test_conflict_cuts_only_the_variant_holding_the_line(self):
        driver = Driver(OPT, cap=512)
        small = driver.recorder
        big = driver.bank.add("inf", RecorderConfig(mode=OPT))
        held, held_entry = driver.make(Opcode.LOAD, 0x100)
        driver.perform(held, 10)
        driver.count(held_entry, 11)
        # 600 non-memory instructions push the 512 variant over its cap:
        # it cuts and clears its signatures; INF still holds 0x100.
        filler, filler_entry = driver.make(Opcode.LOAD, 0x200, nmi=600)
        driver.perform(filler, 12)
        driver.count(filler_entry, 13)
        assert small.stats.size_terminations == 1
        assert small.read_sig.is_empty
        assert big.read_sig.may_contain(0x100 // LINE)

        driver.remote_write(0x100, 20)
        assert big.stats.conflict_terminations == 1
        assert big.cisn == 1
        assert small.stats.conflict_terminations == 0
        assert small.cisn == 1  # from the size cut alone

    def test_union_miss_skips_every_conflict_check(self, monkeypatch):
        checks = []
        original = RelaxReplayRecorder._snoop_conflict
        monkeypatch.setattr(
            RelaxReplayRecorder, "_snoop_conflict",
            lambda self, event, mask: (checks.append(self.name),
                                       original(self, event, mask)))
        driver = Driver(OPT)
        driver.bank.add("base", RecorderConfig(mode=RecorderMode.BASE))
        dyn, entry = driver.make(Opcode.STORE, 0x100)
        driver.perform(dyn, 10)
        driver.count(entry, 11)
        driver.remote_read(0x4000, 20)   # a line no variant touched
        assert checks == []
        driver.remote_read(0x100, 21)    # read vs the written line
        assert checks == ["v", "base"]

    def test_rejected_transactions_still_count(self):
        """Weak edges and Snoop Table observations do not depend on the
        signatures, so the prefilter must not swallow them."""
        tracker = DependenceTracker()
        config = RecorderConfig(mode=OPT)
        banks = [RecorderBank(core, LINE, seed=3) for core in range(2)]
        recorders = [bank.add("v", config, dependence_tracker=tracker)
                     for bank in banks]
        dyn, entry = Driver(OPT).make(Opcode.LOAD, 0x100)
        banks[0].on_perform(dyn, 10, False)
        banks[0].on_count(entry, 11)
        banks[0].on_transaction(SnoopEvent(12, 1, 0x100 // LINE, True))
        assert recorders[0].cisn == 1
        dyn, entry = Driver(OPT, core_id=1).make(Opcode.LOAD, 0x300)
        banks[1].on_perform(dyn, 13, False)
        banks[1].on_count(entry, 14)
        banks[1].on_transaction(SnoopEvent(15, 0, 0x300 // LINE, True))
        assert recorders[1].cisn == 1
        edges = len(tracker.edges)

        banks[0].on_transaction(SnoopEvent(16, 1, 0x4000 // LINE, False))
        assert recorders[0].cisn == 1  # no conflict: the union missed
        assert tracker.edges[edges:] == [IntervalEdge(0, 0, 1, 1)]
        assert recorders[0].stats.snoop_observed == 2
        assert recorders[0].snoop_table.observed == 2


class TestSharedSnoopTable:
    def test_opt_variants_with_one_table_config_share_it(self):
        bank = RecorderBank(0, LINE, seed=1)
        recorders = [bank.add(name, config)
                     for name, config in VARIANTS.items()]
        opts = [recorder for recorder in recorders
                if recorder.config.mode is OPT]
        assert len(opts) == 3
        assert len({id(recorder.snoop_table) for recorder in opts}) == 1
        assert all(recorder.snoop_table is None for recorder in recorders
                   if recorder.config.mode is RecorderMode.BASE)
        bigger = bank.add("big_table", RecorderConfig(
            mode=OPT, snoop_table_entries=128))
        bumped = bank.add("evict_bump", RecorderConfig(
            mode=OPT, dirty_eviction_snoop_increment=True))
        tables = {id(recorder.snoop_table)
                  for recorder in (opts[0], bigger, bumped)}
        assert len(tables) == 3

    def test_directory_evictions_reach_the_shared_table(self, listeners):
        evictions = {}

        class EvictionCounter:
            """Baseline-slot probe counting one core's dirty evictions."""

            def __init__(self, core_id, config):
                self.core_id = core_id
                evictions[core_id] = 0

            def on_perform(self, dyn, cycle, out_of_order):
                pass

            def on_count(self, entry, cycle):
                pass

            def on_transaction(self, event):
                pass

            def on_dirty_eviction(self, cycle, core_id, line_addr):
                if core_id == self.core_id:
                    evictions[core_id] += 1

            def finish(self, cycle):
                pass

        config = replace(MachineConfig(num_cores=3, seed=2),
                         protocol=CoherenceProtocol.DIRECTORY,
                         l1=L1Config(size_kb=1, assoc=1))
        program = random_program(3, 60, seed=7, sharing=0.3,
                                 private_words=256)
        Machine(config, VARIANTS).run(
            program, baseline_factories={"evictions": EvictionCounter})
        banks = [listener for listener in listeners
                 if isinstance(listener, RecorderBank)]
        assert sum(evictions.values()) > 0
        for bank in banks:
            opts = [recorder for recorder in bank.recorders
                    if recorder.snoop_table is not None]
            assert len(opts) == 3
            table = opts[0].snoop_table
            assert all(recorder.snoop_table is table for recorder in opts)
            for recorder in opts:
                assert recorder.config.dirty_eviction_snoop_increment
                assert table.observed == (recorder.stats.snoop_observed
                                          + evictions[bank.core_id])


class TestStructure:
    def test_one_recorder_listener_per_core(self, listeners):
        program = random_program(4, 30, seed=3)
        config = replace(MachineConfig(num_cores=4),
                         consistency=ConsistencyModel.TSO)
        baselines = baseline_factories_for(ConsistencyModel.TSO)
        Machine(config, VARIANTS).run(program, baseline_factories=baselines)
        banks = [listener for listener in listeners
                 if isinstance(listener, RecorderBank)]
        assert [bank.core_id for bank in banks] == [0, 1, 2, 3]
        for bank in banks:
            assert [recorder.name for recorder in bank.recorders] == \
                list(VARIANTS)
        assert not any(isinstance(listener, RelaxReplayRecorder)
                       for listener in listeners)
        # Baseline recorders still listen one per core each.
        assert len(listeners) == 4 + 4 * len(baselines)
