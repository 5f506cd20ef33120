"""Edge-case and error-path coverage across the stack."""

from dataclasses import replace

import pytest

from repro.common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from repro.isa.builder import ThreadBuilder
from repro.isa.program import Program
from repro.replay import parallel_replay_recording, replay_recording
from repro.sim import Machine


def single(instrs_builder, cores=1, **run_kwargs):
    builder = ThreadBuilder()
    instrs_builder(builder)
    program = Program([builder.build()])
    machine = Machine(MachineConfig(num_cores=cores))
    return machine.run(program, **run_kwargs)


class TestMinimalPrograms:
    def test_halt_only(self):
        result = single(lambda b: None)
        assert result.total_instructions == 1  # the auto-HALT
        replay_recording(result, "default")

    def test_single_store(self):
        result = single(lambda b: (b.movi(1, 9), b.store(1, offset=0x40)))
        assert result.final_memory[0x40] == 9
        replay_recording(result, "default")

    def test_store_of_zero_roundtrips(self):
        """Zero-valued stores vanish from the sparse image on both sides —
        they must not break verification."""
        def build(b):
            b.movi(1, 5)
            b.store(1, offset=0x40)
            b.movi(2, 0)
            b.store(2, offset=0x40)
        result = single(build)
        assert 0x40 not in result.final_memory
        replay_recording(result, "default")

    def test_all_fences(self):
        result = single(lambda b: (b.fence(), b.fence(), b.fence()))
        replay_recording(result, "default")

    def test_jump_loops_with_counter(self):
        def build(b):
            b.movi(1, 3)
            top = b.label()
            b.subi(1, 1, 1)
            b.bnez(1, top)
        result = single(build)
        replay_recording(result, "default")


class TestRecorderEdges:
    def test_zero_memory_instructions_log(self):
        """A memory-free thread yields a pure filler/InorderBlock log."""
        result = single(lambda b: b.nop(40))
        output = result.recordings["default"][0]
        from repro.recorder.logfmt import InorderBlock, IntervalFrame
        kinds = {type(e) for e in output.entries}
        assert kinds <= {InorderBlock, IntervalFrame}
        replay = replay_recording(result, "default")
        assert replay.counts.instructions == result.total_instructions

    def test_interval_cap_of_one(self):
        machine = Machine(MachineConfig(num_cores=2), {
            "tiny": RecorderConfig(mode=RecorderMode.BASE,
                                   max_interval_instructions=1)})
        builder = ThreadBuilder()
        builder.movi(1, 1)
        for index in range(10):
            builder.store(1, offset=0x100 + index * 8)
        other = ThreadBuilder()
        other.load(2, offset=0x100)
        program = Program([builder.build(), other.build()])
        result = machine.run(program)
        stats = result.recording_stats("tiny")
        assert stats.size_terminations > 0
        replay_recording(result, "tiny")

    def test_many_variants_simultaneously(self):
        variants = {f"v{i}": RecorderConfig(
            mode=RecorderMode.OPT if i % 2 else RecorderMode.BASE,
            max_interval_instructions=None if i < 2 else 64 * i)
            for i in range(6)}
        machine = Machine(MachineConfig(num_cores=2), variants)
        from repro.workloads import random_program
        result = machine.run(random_program(2, 30, seed=77))
        for name in variants:
            replay_recording(result, name)


class TestReplayEdges:
    def test_unknown_variant_is_a_log_format_error(self):
        from repro.common.errors import LogFormatError
        result = single(lambda b: b.nop(2))
        with pytest.raises(LogFormatError, match="available: default"):
            replay_recording(result, "nonesuch")

    def test_parallel_replay_single_core(self):
        result = single(lambda b: (b.movi(1, 1), b.store(1, offset=0x40)),
                        collect_dependence_edges=True)
        parallel = parallel_replay_recording(result, "default")
        assert parallel.verified
        assert parallel.speedup == pytest.approx(1.0)

    def test_replay_cost_zero_interval_duration_clamped(self):
        from repro.common.config import ReplayCostConfig
        result = single(lambda b: b.nop(3), collect_dependence_edges=True)
        # Every OS cost zero and user time next to nothing (validate()
        # wants a positive CPI), so each interval costs under one cycle.
        cost = ReplayCostConfig(user_cpi=1e-9,
                                interval_dispatch_cycles=0,
                                inorder_block_interrupt_cycles=0,
                                block_flush_user_cycles=0,
                                reordered_load_cycles=0,
                                reordered_store_cycles=0,
                                dummy_entry_cycles=0)
        free = replace(result, config=replace(result.config,
                                              replay_cost=cost))
        parallel = parallel_replay_recording(free, "default")
        assert parallel.makespan_cycles >= 1.0  # durations clamp to >= 1


class TestProtocolParity:
    @pytest.mark.parametrize("protocol", list(CoherenceProtocol))
    def test_final_state_protocol_independent_for_synced_program(
            self, protocol):
        """A data-race-free program must reach the same final memory under
        both coherence protocols (they differ in timing and observation,
        never in values)."""
        def thread(tid):
            builder = ThreadBuilder()
            builder.spin_lock(0x100, 3)
            builder.load(4, offset=0x140)
            builder.addi(4, 4, 1)
            builder.store(4, offset=0x140)
            builder.spin_unlock(0x100, 3)
            return builder.build()

        program = Program([thread(t) for t in range(3)])
        config = replace(MachineConfig(num_cores=3), protocol=protocol)
        result = Machine(config).run(program)
        assert result.final_memory[0x140] == 3

    def test_consistency_models_agree_on_drf_output(self):
        from repro.workloads import build_workload
        finals = []
        for model in ConsistencyModel:
            config = replace(MachineConfig(num_cores=2), consistency=model)
            program = build_workload("lu", num_threads=2, scale=0.15, seed=9)
            result = Machine(config).run(program)
            # lu is fully barrier-synchronized (every region is private or
            # barrier-separated), so its final memory is DRF-deterministic
            # and must not depend on the consistency model.
            finals.append(result.final_memory)
        assert finals[0] == finals[1] == finals[2]
