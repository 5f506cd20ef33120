"""Litmus-test suite: consistency-model validation + record/replay of
relaxed outcomes.

These are slow-ish integration tests (each sweeps ~100 interleavings), so
the sweep axis is reduced; the benchmark suite runs the full axis.
"""

import pytest

from repro.common.config import (
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from repro.replay import replay_recording
from repro.sim import Machine
from repro.workloads.litmus import (
    LITMUS_TESTS,
    litmus_program,
    run_litmus,
)

AXIS = (0, 60, 200, 480, 1000)  # reduced sweep for unit-test speed


@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
@pytest.mark.parametrize("model", list(ConsistencyModel))
def test_no_forbidden_outcomes(name, model):
    """The machine must never produce an outcome its model forbids —
    in particular IRIW's non-write-atomic outcome must never appear
    (Observation 1's prerequisite)."""
    result = run_litmus(LITMUS_TESTS[name], model, stagger_axis=AXIS)
    assert not result.violations, (
        f"{name} under {model.value}: forbidden outcomes "
        f"{result.violations} observed")
    assert result.observed, "sweep produced no outcomes at all"


def test_sb_relaxed_outcome_under_tso_and_rc():
    """Store buffering's (0,0) is the signature TSO/RC relaxation; it must
    appear there and never under SC."""
    test = LITMUS_TESTS["SB"]
    assert run_litmus(test, ConsistencyModel.TSO).saw((0, 0))
    assert run_litmus(test, ConsistencyModel.RC).saw((0, 0))
    assert not run_litmus(test, ConsistencyModel.SC).saw((0, 0))


def test_release_acquire_forbids_mp_reordering():
    test = LITMUS_TESTS["MP+rel-acq"]
    for model in ConsistencyModel:
        result = run_litmus(test, model)
        assert not result.saw((1, 0)), model


def test_unproduced_outcomes_documented():
    """LB(1,1) and MP(1,0) are allowed-but-unproduced on this
    implementation; if the machine ever starts producing them this test
    flags it so the documentation gets updated."""
    for name in ("LB", "MP"):
        test = LITMUS_TESTS[name]
        result = run_litmus(test, ConsistencyModel.RC)
        for outcome in test.unproduced_here:
            assert not result.saw(outcome), (
                f"{name}: {outcome} now produced — update unproduced_here "
                f"and the module docstring")


def test_mp_writer_reorders_stores_under_rc():
    """Even though MP's (1,0) is never *remotely visible*, the writer's
    flag store does perform under the data store's pending upgrade — the
    recorder must see those reordered stores."""
    from dataclasses import replace
    # Equal staggers: both threads warm both lines into S, so the writer's
    # data store needs a queued upgrade while its flag store merges into
    # the earlier dirtying upgrade of the same line — performing first.
    program = litmus_program(LITMUS_TESTS["MP"], (0, 0))
    config = replace(MachineConfig(num_cores=2),
                     consistency=ConsistencyModel.RC)
    machine = Machine(config)
    recording = machine.run(program)
    ooo_stores = sum(core.ooo_stores for core in recording.cores)
    assert ooo_stores > 0


@pytest.mark.parametrize("model", list(ConsistencyModel))
def test_litmus_outcomes_record_and_replay(model):
    """Record every staggered SB execution and replay it: the replayed
    outcome — including the relaxed (0,0) — must reproduce exactly."""
    variant = RecorderConfig(mode=RecorderMode.OPT)
    result = run_litmus(LITMUS_TESTS["SB"], model, stagger_axis=(0, 60, 480),
                        record_variant=variant)
    assert result.recordings
    relaxed_replayed = False
    for recording in result.recordings:
        replay = replay_recording(recording, "litmus")
        outcome = tuple(1 if replay.final_memory.get(0x8000 + slot * 8, 0)
                        else 0 for slot in range(2))
        recorded = tuple(1 if recording.final_memory.get(0x8000 + slot * 8, 0)
                         else 0 for slot in range(2))
        assert outcome == recorded
        if outcome == (0, 0):
            relaxed_replayed = True
    if model is not ConsistencyModel.SC:
        assert relaxed_replayed, "sweep never replayed the relaxed outcome"


def test_program_shape():
    program = litmus_program(LITMUS_TESTS["IRIW"], (0, 10, 20, 30))
    assert program.num_threads == 4
    program.validate()


def test_forbidden_sets_are_complements():
    for test in LITMUS_TESTS.values():
        for model in ConsistencyModel:
            allowed = test.allowed[model]
            forbidden = test.forbidden(model)
            assert not (allowed & forbidden)
            assert len(allowed | forbidden) == 2 ** test.outcome_slots


def test_stagger_padding_is_one_instruction_validated_once(monkeypatch):
    """A staggered thread's padding NOPs are one frozen object at every
    position, so the thread validates it once."""
    from repro.isa.instructions import Instruction, Opcode

    calls = []
    original = Instruction.validate

    def counting(self, program_length):
        calls.append(self)
        return original(self, program_length)

    monkeypatch.setattr(Instruction, "validate", counting)
    program = litmus_program(LITMUS_TESTS["SB"], staggers=(0, 1400))
    padding = program.threads[1].instructions[:1400]
    assert padding[0].opcode is Opcode.NOP
    assert all(instruction is padding[0] for instruction in padding)
    assert program.threads[1].instructions[1400].opcode is not Opcode.NOP
    assert calls.count(padding[0]) == 1
    assert len(calls) == len({id(instruction) for thread in program.threads
                              for instruction in thread.instructions})
