"""End-to-end replayer tests, including divergence detection."""

import dataclasses

import pytest

from repro.common.config import MachineConfig, RecorderConfig, RecorderMode
from repro.common.errors import LogFormatError, ReplayDivergenceError
from repro.isa.builder import ThreadBuilder
from repro.isa.program import Program
from repro.recorder.logfmt import InorderBlock, ReorderedLoad
from repro.replay.replayer import Replayer, replay_recording
from repro.sim.machine import Machine


@pytest.fixture(scope="module")
def racy_recording():
    """A 3-core recording with locks, sharing and plenty of reordering."""
    def thread(tid):
        builder = ThreadBuilder(f"t{tid}")
        builder.movi(10, 0)
        for index in range(40):
            addr = 0x1000 + ((index * 5 + tid * 7) % 24) * 8
            builder.load(1, offset=addr)
            builder.xor(10, 10, 1)
            builder.xori(2, 10, index)
            builder.store(2, offset=addr)
        builder.spin_lock(0x4000, 3)
        builder.load(4, offset=0x4020)
        builder.addi(4, 4, 1)
        builder.store(4, offset=0x4020)
        builder.spin_unlock(0x4000, 3)
        builder.store(10, offset=0x5000 + tid * 8)
        return builder.build()

    program = Program([thread(t) for t in range(3)], name="racy")
    machine = Machine(MachineConfig(num_cores=3), {
        "base": RecorderConfig(mode=RecorderMode.BASE),
        "opt": RecorderConfig(mode=RecorderMode.OPT),
    })
    return machine.run(program, capture_load_trace=True)


class TestVerifiedReplay:
    @pytest.mark.parametrize("variant", ["base", "opt"])
    def test_replay_verifies(self, racy_recording, variant):
        result = replay_recording(racy_recording, variant)
        assert result.verified
        assert result.counts.intervals > 0
        # The lock-protected counter reached 3 in both worlds.
        assert result.final_memory[0x4020] == 3

    def test_replay_is_idempotent(self, racy_recording):
        first = replay_recording(racy_recording, "opt")
        second = replay_recording(racy_recording, "opt")
        assert first.final_memory == second.final_memory
        assert first.final_regs == second.final_regs

    def test_counts_cover_all_instructions(self, racy_recording):
        result = replay_recording(racy_recording, "base")
        replayed = (result.counts.instructions + result.counts.injected_loads
                    + result.counts.dummies)
        assert replayed == racy_recording.total_instructions


class TestDivergenceDetection:
    def _corrupt(self, recording, variant, mutate):
        """Deep-copy the variant's logs, apply ``mutate``, and replay."""
        outputs = recording.recordings[variant]
        logs = [list(output.entries) for output in outputs]
        mutate(logs)
        replayer = Replayer(recording.program, logs, variant=variant)
        memory, contexts, counts = replayer.replay()
        # Re-run the library verification step manually.
        from repro.replay.replayer import verify_and_cost
        verify_and_cost(recording, replayer, memory, contexts, counts,
                        verify_load_trace=False)

    def test_corrupted_load_value_detected(self, racy_recording):
        def mutate(logs):
            for log in logs:
                for index, entry in enumerate(log):
                    if isinstance(entry, ReorderedLoad):
                        log[index] = ReorderedLoad(entry.value ^ 0xFF)
                        return
            pytest.skip("no reordered load in this recording")

        with pytest.raises(ReplayDivergenceError):
            self._corrupt(racy_recording, "base", mutate)

    def test_corrupted_block_size_detected(self, racy_recording):
        def mutate(logs):
            for log in logs:
                for index, entry in enumerate(log):
                    if isinstance(entry, InorderBlock) and entry.size > 1:
                        log[index] = InorderBlock(entry.size - 1)
                        return

        with pytest.raises((ReplayDivergenceError, LogFormatError)):
            self._corrupt(racy_recording, "base", mutate)

    def test_wrong_core_count_rejected(self, racy_recording):
        outputs = racy_recording.recordings["base"]
        with pytest.raises(LogFormatError):
            Replayer(racy_recording.program,
                     [outputs[0].entries])  # 1 log for a 3-thread program

    def test_load_trace_mismatch_detected(self, racy_recording):
        # Tamper with the recorded trace instead of the log: verification
        # must notice the disagreement.
        tampered = dataclasses.replace(
            racy_recording,
            load_trace=[[(seq, addr, value ^ 1) for seq, addr, value in trace]
                        for trace in racy_recording.load_trace])
        with pytest.raises(ReplayDivergenceError):
            replay_recording(tampered, "base")

    def test_skip_verification(self, racy_recording):
        tampered = dataclasses.replace(
            racy_recording,
            load_trace=[[(seq, addr, value ^ 1) for seq, addr, value in trace]
                        for trace in racy_recording.load_trace])
        result = replay_recording(tampered, "base", verify=False)
        assert not result.verified
