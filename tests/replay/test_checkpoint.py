"""Differential proof that replay checkpointing is observationally
invisible: restoring any checkpoint and running forward must be
byte-identical to straight-line replay — memory, registers, load values,
and replay counters alike — across litmus tests and consistency models.
"""

import dataclasses

import pytest

from repro.common.config import ConsistencyModel, MachineConfig
from repro.obs.inspect import CheckpointStore, ReplayCheckpoint, ReplayInspector
from repro.replay.replayer import Replayer, replay_recording
from repro.sim.machine import Machine
from repro.workloads.litmus import LITMUS_TESTS, litmus_program


def _record(test_name: str, model: str, staggers=None):
    test = LITMUS_TESTS[test_name]
    staggers = staggers or tuple([0, 3, 7][:len(test.threads)])
    program = litmus_program(test, staggers=staggers)
    config = MachineConfig(num_cores=len(test.threads),
                           consistency=ConsistencyModel(model))
    return Machine(config).run(program, capture_load_trace=True,
                               collect_dependence_edges=True)


def _replayer_for(result, variant="default"):
    outputs = result.recordings[variant]
    return Replayer(result.program, [o.entries for o in outputs],
                    cisn_bits=outputs[0].config.cisn_bits, variant=variant)


class TestDifferentialCheckpointing:
    """The tentpole invariant, litmus x consistency-model matrix."""

    @pytest.mark.parametrize("model", ["SC", "TSO", "RC"])
    @pytest.mark.parametrize("test_name", sorted(LITMUS_TESTS))
    def test_restore_and_run_forward_is_byte_identical(self, test_name,
                                                       model):
        result = _record(test_name, model)
        replayer = _replayer_for(result)
        store = CheckpointStore()
        # Dense cadence: a checkpoint after every single chunk.
        memory, contexts, counts = replayer.replay(
            checkpoint_every=1, checkpoint_sink=store.capture)
        straight = {
            "memory": dict(memory),
            "writers": dict(memory.writers),
            "regs": [list(context.regs) for context in contexts],
            "loads": [list(context.load_values) for context in contexts],
            "counts": counts,
        }
        assert len(store) == len(replayer.intervals) + 1
        for checkpoint in store.checkpoints:
            state = store.restore(checkpoint, replayer)
            replayer.run(state)
            assert dict(state.memory) == straight["memory"], \
                checkpoint.checkpoint_id
            assert state.memory.writers == straight["writers"]
            assert [list(c.regs) for c in state.contexts] == straight["regs"]
            assert [list(c.load_values) for c in state.contexts] \
                == straight["loads"]
            assert state.counts == straight["counts"]
            assert state.position == len(replayer.intervals)

    def test_checkpointed_replay_equals_plain_replay(self):
        result = _record("MP", "RC")
        plain = _replayer_for(result).replay()
        store = CheckpointStore()
        checked = _replayer_for(result).replay(
            checkpoint_every=2, checkpoint_sink=store.capture)
        assert dict(plain[0]) == dict(checked[0])
        assert [c.regs for c in plain[1]] == [c.regs for c in checked[1]]
        assert plain[2] == checked[2]

    def test_replay_recording_with_checkpoints_still_verifies(self):
        result = _record("SB", "TSO")
        replayed = replay_recording(result, checkpoint_every=2)
        assert replayed.verified


class TestCheckpointSemantics:
    def test_capture_deep_copies_live_state(self):
        result = _record("SB", "TSO")
        replayer = _replayer_for(result)
        store = CheckpointStore()
        replayer.replay(checkpoint_every=1, checkpoint_sink=store.capture)
        first = store.checkpoints[0]
        assert first.position == 0
        # Checkpoint 0 predates every interval: memory untouched, no
        # retirement — even though the live replay ran to completion.
        assert all(context["instructions_executed"] == 0
                   for context in first.contexts)
        assert first.writers == {}
        assert first.counts.intervals == 0

    def test_restored_state_is_isolated_from_the_checkpoint(self):
        result = _record("SB", "TSO")
        replayer = _replayer_for(result)
        store = CheckpointStore()
        replayer.replay(checkpoint_every=1, checkpoint_sink=store.capture)
        checkpoint = store.checkpoints[1]
        frozen = {
            "memory": dict(checkpoint.memory),
            "contexts": [dict(context) for context in checkpoint.contexts],
            "counts": dataclasses.replace(checkpoint.counts),
        }
        state = store.restore(checkpoint, replayer)
        replayer.run(state)  # mutates the restored state heavily
        assert checkpoint.memory == frozen["memory"]
        assert checkpoint.contexts == frozen["contexts"]
        assert checkpoint.counts == frozen["counts"]

    def test_nearest_returns_latest_at_or_before(self):
        result = _record("SB", "TSO")
        replayer = _replayer_for(result)
        store = CheckpointStore()
        replayer.replay(checkpoint_every=2, checkpoint_sink=store.capture)
        positions = [cp.position for cp in store.checkpoints]
        assert positions[0] == 0
        assert all(position % 2 == 0 for position in positions)
        for target in range(len(replayer.intervals) + 1):
            nearest = store.nearest(target)
            assert nearest.position <= target
            assert not any(p <= target and p > nearest.position
                           for p in positions)

    def test_checkpoint_json_round_trip(self):
        result = _record("MP", "RC")
        inspector = ReplayInspector(result, checkpoint_every=2)
        for checkpoint in inspector.checkpoints.checkpoints:
            clone = ReplayCheckpoint.from_dict(checkpoint.to_dict())
            assert clone == checkpoint

    def test_run_rejects_positions_outside_the_log(self):
        from repro.common.errors import LogFormatError

        result = _record("SB", "TSO")
        replayer = _replayer_for(result)
        state = replayer.initial_state()
        with pytest.raises(LogFormatError):
            replayer.run(state, stop=len(replayer.intervals) + 1)
