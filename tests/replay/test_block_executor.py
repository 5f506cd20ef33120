"""Differential proof that running an InorderBlock as one loop over the
decoded table is invisible: a replay through
:meth:`ThreadContext.run_block` equals the reference interpreter stepped
one instruction at a time (:mod:`.reference_interpreter`) in final memory,
the writer map, every register, pc, ``halted``, loaded value and
instruction count, and the access sink's event sequence — on random
programs and on every litmus test under SC, TSO and RC.
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import (ConsistencyModel, MachineConfig,
                                 RecorderConfig, RecorderMode)
from repro.common.errors import ReplayDivergenceError
from repro.isa.builder import ThreadBuilder
from repro.isa.instructions import AluOp, RmwOp
from repro.replay.interpreter import ThreadContext, decoded_table
from repro.replay.replayer import Replayer
from repro.sim.machine import Machine
from repro.workloads import random_program
from repro.workloads.litmus import LITMUS_TESTS, litmus_program

from .reference_interpreter import ReferenceContext

#: Small caps cut many intervals, so blocks start and end mid-program.
VARIANTS = {
    "base_inf": RecorderConfig(mode=RecorderMode.BASE),
    "base_16": RecorderConfig(mode=RecorderMode.BASE,
                              max_interval_instructions=16),
    "opt_inf": RecorderConfig(mode=RecorderMode.OPT),
    "opt_16": RecorderConfig(mode=RecorderMode.OPT,
                             max_interval_instructions=16),
}


class _Sink:
    """An access sink that keeps every event in order."""

    def __init__(self):
        self.events = []

    def begin_interval(self, position, interval):
        self.events.append(("begin", position, interval.core_id,
                            interval.cisn))

    def access(self, kind, addr, value):
        self.events.append((kind, addr, value))


def _replay(recording, variant, context_class):
    """Everything a replay of ``variant`` leaves behind, with every
    thread run by ``context_class``."""
    replayer = Replayer.of(recording, variant)
    state = replayer.initial_state()
    state.contexts = [context_class(core_id, thread) for core_id, thread
                      in enumerate(recording.program.threads)]
    sink = _Sink()
    replayer.run(state, access_sink=sink)
    contexts = state.contexts
    return {
        "memory": dict(state.memory),
        "writers": dict(state.memory.writers),
        "regs": [context.regs for context in contexts],
        "pc": [context.pc for context in contexts],
        "halted": [context.halted for context in contexts],
        "load_values": [context.load_values for context in contexts],
        "instructions_executed": [context.instructions_executed
                                  for context in contexts],
        "events": sink.events,
        "counts": state.counts,
    }


def assert_blocks_match_reference(recording):
    for variant in recording.variants:
        blocks = _replay(recording, variant, ThreadContext)
        reference = _replay(recording, variant, ReferenceContext)
        for name, value in reference.items():
            assert blocks[name] == value, (variant, name)
        counts = blocks["counts"]
        assert counts.instructions + counts.injected_loads + counts.dummies \
            == sum(blocks["instructions_executed"])


def _record(program, consistency):
    config = replace(MachineConfig(num_cores=program.num_threads),
                     consistency=consistency)
    return Machine(config, VARIANTS).run(program)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(seed=st.integers(min_value=0, max_value=100_000),
       threads=st.integers(min_value=1, max_value=4),
       sharing=st.floats(min_value=0.0, max_value=1.0),
       locks=st.floats(min_value=0.0, max_value=0.3),
       consistency=st.sampled_from(list(ConsistencyModel)))
def test_random_programs(seed, threads, sharing, locks, consistency):
    program = random_program(threads, ops_per_thread=40, seed=seed,
                             sharing=sharing, lock_probability=locks)
    assert_blocks_match_reference(_record(program, consistency))


@pytest.mark.parametrize("model", ["SC", "TSO", "RC"])
@pytest.mark.parametrize("test_name", sorted(LITMUS_TESTS))
def test_litmus(test_name, model):
    test = LITMUS_TESTS[test_name]
    program = litmus_program(test,
                             staggers=tuple([0, 3, 7][:len(test.threads)]))
    assert_blocks_match_reference(_record(program, ConsistencyModel(model)))


def _every_form_thread():
    """One thread using every dispatch class of the decoded table."""
    builder = ThreadBuilder()
    builder.movi(1, -1)
    builder.movi(2, 0x100)
    builder.alu(AluOp.SHL, 3, 1, imm=70)
    builder.alu(AluOp.CMPLT, 4, 2, src2=1)
    builder.store(1, offset=0x10)
    builder.store(3, base=2, offset=8)
    builder.load(5, offset=0x10)
    builder.load(6, base=2, offset=8)
    builder.rmw(RmwOp.FETCH_ADD, 7, base=2, offset=8, src=4)
    builder.rmw(RmwOp.TAS, 8, offset=0x18)
    builder.fence()
    builder.nop()
    skip = builder.fresh_label()
    builder.beqz(1, skip)
    builder.bnez(1, skip)
    builder.movi(9, 99)   # skipped
    builder.place_label(skip)
    done = builder.fresh_label()
    builder.jump(done)
    builder.movi(10, 99)  # skipped
    builder.place_label(done)
    return builder.build()


class TestBlocks:
    def test_every_form_in_one_block(self):
        thread = _every_form_thread()
        runs = []
        for context_class in (ThreadContext, ReferenceContext):
            context = context_class(0, thread)
            sink = _Sink()
            context.access_sink = sink.access
            memory = {}
            context.run_block(memory, 16)
            runs.append((memory, context.regs, context.pc, context.halted,
                         context.load_values, context.instructions_executed,
                         sink.events))
        assert runs[0] == runs[1]
        assert runs[0][3]  # halted
        assert runs[0][1][9] == runs[0][1][10] == 0

    def test_step_is_a_block_of_one(self):
        thread = _every_form_thread()
        stepped, block = ThreadContext(0, thread), ThreadContext(0, thread)
        memory_a, memory_b = {}, {}
        while not stepped.halted:
            stepped.step(memory_a)
        block.run_block(memory_b, stepped.instructions_executed)
        assert (memory_a, stepped.regs, stepped.pc) == (memory_b, block.regs,
                                                        block.pc)

    @pytest.mark.parametrize("start", [0, 1, 2])
    def test_running_past_the_end(self, start):
        """Same message as the reference, with pc and the count left at
        the failing instruction."""
        builder = ThreadBuilder()
        builder.movi(1, 5)
        thread = builder.build()  # movi, halt
        failures = []
        for context_class in (ThreadContext, ReferenceContext):
            context = context_class(0, thread)
            context.run_block({}, start)
            with pytest.raises(ReplayDivergenceError) as error:
                context.run_block({}, 4)
            failures.append((str(error.value), context.pc,
                             context.instructions_executed, context.regs,
                             context.halted))
        assert failures[0] == failures[1]
        assert failures[0][:3] == (
            "core 0: replay ran past the end of the program (pc=2)", 2, 2)

    def test_table_is_memoized_and_shares_equal_instructions(self):
        builder = ThreadBuilder()
        for _ in range(3):
            builder.addi(1, 1, 1)  # three equal, distinct objects
        thread = builder.build()
        table = decoded_table(thread)
        assert decoded_table(thread) is table
        assert ThreadContext(0, thread)._table is table
        assert table[0] is table[1] is table[2]
