"""Persistence tests: recording round-trips, CISN edge encoding, and
recorder-config bit widths surviving the manifest."""

import json

import pytest

from repro.common.config import (
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from repro.common.errors import LogFormatError
from repro.recorder.logfmt import IntervalFrame, decode_log, encode_log
from repro.recorder.ordering import IntervalEdge
from repro.sim.machine import Machine
from repro.storage import (
    config_from_dict,
    config_to_dict,
    load_recording,
    save_recording,
)
from repro.workloads.litmus import LITMUS_TESTS, litmus_program


@pytest.fixture(scope="module")
def recorded():
    program = litmus_program(LITMUS_TESTS["MP"], staggers=(0, 5))
    config = MachineConfig(num_cores=2,
                           consistency=ConsistencyModel("RC"))
    return Machine(config).run(program, collect_dependence_edges=True)


class TestEdgeEncoding:
    def test_cisn_edges_round_trip_through_disk(self, recorded, tmp_path):
        root = save_recording(recorded, tmp_path / "rec")
        stored = load_recording(root)
        original = recorded.dependence_edges["default"]
        loaded = stored.edges("default")
        assert loaded == original
        assert all(isinstance(edge, IntervalEdge) for edge in loaded)
        # The on-disk form is plain 4-int rows, wire-stable.
        rows = json.loads((root / "edges" / "default.json").read_text())
        assert rows == [[e.src_core, e.src_cisn, e.dst_core, e.dst_cisn]
                        for e in original]

    def test_missing_edge_file_reads_as_empty(self, recorded, tmp_path):
        root = save_recording(recorded, tmp_path / "rec")
        stored = load_recording(root)
        assert stored.edges("no-such-variant") == []

    def test_edges_reference_recorded_cisns(self, recorded):
        per_core = [output.entries
                    for output in recorded.recordings["default"]]
        intervals = [sum(isinstance(entry, IntervalFrame)
                         for entry in core) for core in per_core]
        for edge in recorded.dependence_edges["default"]:
            assert 0 <= edge.src_cisn < intervals[edge.src_core]
            assert 0 <= edge.dst_cisn < intervals[edge.dst_core]


class TestRecorderConfigWidths:
    @pytest.mark.parametrize("cisn_bits", [8, 16, 24])
    def test_bit_widths_survive_the_dict_round_trip(self, cisn_bits):
        config = RecorderConfig(mode=RecorderMode.BASE, nmi_bits=6,
                                cisn_bits=cisn_bits,
                                max_interval_instructions=512)
        clone = config_from_dict(RecorderConfig, config_to_dict(config))
        assert clone == config
        assert clone.cisn_bits == cisn_bits
        assert clone.nmi_bits == 6
        assert clone.mode is RecorderMode.BASE

    def test_log_decodes_only_with_the_recording_widths(self, recorded):
        output = recorded.recordings["default"][0]
        data, bits = encode_log(output.entries, output.config)
        assert decode_log(data, bits, output.config) == output.entries
        # A mismatched CISN width misparses the stream (different entry
        # sizes), so decode must not silently return the same entries.
        narrow = RecorderConfig(mode=output.config.mode, cisn_bits=8)
        try:
            misread = decode_log(data, bits, narrow)
        except LogFormatError:
            return
        assert misread != output.entries

    def test_manifest_preserves_widths(self, recorded, tmp_path):
        root = save_recording(recorded, tmp_path / "rec")
        manifest = json.loads((root / "manifest.json").read_text())
        meta = manifest["variants"]["default"]["recorder_config"]
        assert meta["cisn_bits"] == 16
        assert meta["nmi_bits"] == 4
        stored = load_recording(root)
        replayed = stored.replay("default")
        assert replayed.verified


class TestStoredRoundTrip:
    def test_logs_round_trip_bit_exactly(self, recorded, tmp_path):
        root = save_recording(recorded, tmp_path / "rec")
        stored = load_recording(root)
        original = [output.entries
                    for output in recorded.recordings["default"]]
        assert stored.log_entries("default") == original

    def test_unknown_variant_is_a_log_format_error(self, recorded,
                                                   tmp_path):
        root = save_recording(recorded, tmp_path / "rec")
        stored = load_recording(root)
        with pytest.raises(LogFormatError):
            stored.log_entries("nope")

    def test_format_version_gate(self, recorded, tmp_path):
        root = save_recording(recorded, tmp_path / "rec")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format_version"] = 999
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(LogFormatError):
            load_recording(root)
