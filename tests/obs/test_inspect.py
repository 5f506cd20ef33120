"""Tests for the time-travel replay inspector (repro.obs.inspect)."""

import json

import pytest

from repro.common.config import ConsistencyModel, MachineConfig
from repro.obs.inspect import (
    READ_KINDS,
    WRITE_KINDS,
    ReplayInspector,
)
from repro.sim.machine import Machine
from repro.storage import load_recording, save_recording
from repro.workloads.litmus import LITMUS_TESTS, litmus_program

_OUT0 = 0x8000  # first litmus outcome slot


@pytest.fixture(scope="module")
def sb_result():
    program = litmus_program(LITMUS_TESTS["SB"], staggers=(0, 3))
    config = MachineConfig(num_cores=2,
                           consistency=ConsistencyModel("TSO"))
    return Machine(config).run(program, capture_load_trace=True,
                               collect_dependence_edges=True)


@pytest.fixture(scope="module")
def inspector(sb_result):
    return ReplayInspector(sb_result, checkpoint_every=2)


class TestConstruction:
    def test_summary_shape(self, inspector):
        summary = inspector.summary()
        json.dumps(summary)
        assert summary["variant"] == "default"
        assert summary["intervals"] == inspector.num_intervals > 0
        assert summary["checkpoints"] >= 1
        assert summary["hb_source"] in ("edges", "timestamps")
        assert summary["accesses"] == len(inspector.accesses)

    def test_final_state_matches_recording(self, inspector, sb_result):
        assert inspector.final_memory == sb_result.final_memory

    def test_bad_checkpoint_cadence_rejected(self, sb_result):
        with pytest.raises(ValueError):
            ReplayInspector(sb_result, checkpoint_every=0)


class TestStateQueries:
    def test_state_at_final_position_is_final_state(self, inspector,
                                                    sb_result):
        view = inspector.state_at_position(inspector.num_intervals)
        assert view.memory == sb_result.final_memory
        assert [core["regs"] for core in view.cores] == \
            [core.final_regs for core in sb_result.cores]
        assert all(core["halted"] for core in view.cores)

    def test_state_at_chunk_advances_watermark(self, inspector):
        view = inspector.state_at(0, 0)
        assert view.cisn_watermarks[0] == 1
        assert view.position == inspector.replayer.index_of(0, 0) + 1
        assert view.replayed_forward >= 0
        json.dumps(view.to_dict())
        assert "cisn watermarks" in view.render()

    def test_every_position_resolves(self, inspector):
        for position in range(inspector.num_intervals + 1):
            view = inspector.state_at_position(position)
            assert view.position == position
            # Never replays more than one checkpoint stride forward.
            assert view.replayed_forward < max(2,
                                               inspector.checkpoint_every)

    def test_unknown_chunk_raises(self, inspector):
        with pytest.raises(KeyError):
            inspector.state_at(0, 99)
        with pytest.raises(KeyError):
            inspector.state_at_position(inspector.num_intervals + 1)

    def test_on_demand_checkpoint_is_cached(self, inspector):
        before = len(inspector.checkpoints)
        checkpoint = inspector.checkpoint_at(0, 0)
        assert checkpoint.position == inspector.replayer.index_of(0, 0) + 1
        again = inspector.checkpoint_at(0, 0)
        assert again is checkpoint or again.position == checkpoint.position
        assert len(inspector.checkpoints) <= before + 1


class TestDataFlowQueries:
    def test_write_attribution(self, inspector, sb_result):
        first = inspector.first_write(_OUT0)
        last = inspector.last_write(_OUT0)
        assert first is not None and last is not None
        assert first.kind in WRITE_KINDS and last.kind in WRITE_KINDS
        assert first.step <= last.step
        # The final writer recorded by the tracking memory agrees.
        assert inspector.final_writers[_OUT0] == (last.core_id, last.cisn)

    def test_never_written_address(self, inspector):
        assert inspector.first_write(0xDEAD00) is None
        assert inspector.writes_to(0xDEAD00) == []

    def test_who_read_filters_by_value(self, inspector):
        # SB warms both test lines: every core reads x (0x1000) early.
        reads = inspector.who_read(0x1000)
        assert reads
        assert all(access.kind in READ_KINDS for access in reads)
        for access in reads:
            assert access in inspector.who_read(0x1000, access.value)
        assert inspector.who_read(0x1000, 0xBAD_F00D) == []

    def test_access_log_is_replay_ordered(self, inspector):
        steps = [access.step for access in inspector.accesses.accesses]
        assert steps == sorted(steps) == list(range(len(steps)))
        json.dumps([access.to_dict()
                    for access in inspector.accesses.accesses])


class TestStructureQueries:
    def test_timeline_covers_each_core(self, inspector):
        for core_id in range(2):
            spans = inspector.timeline(core_id)
            cisns = [span["cisn"] for span in spans]
            assert cisns == sorted(cisns)
            assert len(spans) == inspector.replayer.intervals_per_core()[
                core_id]
            for span in spans:
                assert span["start"] <= span["end"]
        with pytest.raises(KeyError):
            inspector.timeline(5)

    def test_hb_slice_uses_recorded_edges(self, inspector):
        hb = inspector.hb_slice(0, 1)
        assert hb.source == "edges"
        assert (0, 0) in hb.ancestors
        with pytest.raises(KeyError):
            inspector.hb_slice(0, 99)


class TestStoredRecordings:
    def test_inspector_from_stored_recording(self, sb_result, tmp_path):
        root = save_recording(sb_result, tmp_path / "rec")
        stored = load_recording(root)
        inspector = ReplayInspector(stored, checkpoint_every=2)
        assert inspector.variant == stored.variants[0]
        assert inspector.final_memory == stored.final_memory
        assert inspector.summary()["hb_source"] == "edges"
        live = ReplayInspector(sb_result, checkpoint_every=2)
        assert inspector.summary() == live.summary()

    def test_inspector_unknown_variant(self, sb_result, tmp_path):
        from repro.common.errors import LogFormatError

        root = save_recording(sb_result, tmp_path / "rec")
        stored = load_recording(root)
        with pytest.raises(LogFormatError, match="available: default"):
            ReplayInspector(stored, "nope")
