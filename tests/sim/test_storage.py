"""Tests for on-disk recording persistence and the CLI tools."""

import base64
import dataclasses
import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    MachineConfig,
    RecorderConfig,
    RecorderMode,
)
from repro.common.errors import LogFormatError, WorkloadError
from repro.common.hashing import canonical_json
from repro.harness.runner import baseline_factories_for
from repro.isa.instructions import AluOp, Instruction, Opcode, RmwOp
from repro.recorder.logfmt import IntervalFrame, decode_log, encode_log
from repro.recorder.ordering import IntervalEdge
from repro.sim import Machine, RunResult
from repro.sim.serialize import run_result_to_dict
from repro.storage import (
    FORMAT_VERSION,
    config_from_dict,
    config_to_dict,
    load_program,
    load_recording,
    program_from_dict,
    program_to_dict,
    save_program,
    save_recording,
)
from repro.tools import main as tools_main
from repro.workloads import WORKLOAD_NAMES, build_workload, random_program
from repro.workloads.litmus import LITMUS_TESTS, litmus_program


@pytest.fixture(scope="module")
def recording():
    program = build_workload("radix", num_threads=3, scale=0.2, seed=4)
    machine = Machine(MachineConfig(num_cores=3), {
        "opt": RecorderConfig(mode=RecorderMode.OPT),
        "base_256": RecorderConfig(mode=RecorderMode.BASE,
                                   max_interval_instructions=256),
    })
    return machine.run(program, collect_dependence_edges=True)


class TestProgramSerialization:
    def test_roundtrip_workload(self):
        program = build_workload("barnes", num_threads=2, scale=0.2, seed=3)
        restored = program_from_dict(program_to_dict(program))
        assert restored.name == program.name
        assert restored.initial_memory == program.initial_memory
        for a, b in zip(restored.threads, program.threads):
            assert a.instructions == b.instructions

    def test_roundtrip_random_program(self):
        program = random_program(3, 40, seed=9, lock_probability=0.3)
        restored = program_from_dict(program_to_dict(program))
        for a, b in zip(restored.threads, program.threads):
            assert a.instructions == b.instructions

    def test_file_roundtrip(self, tmp_path):
        program = build_workload("fft", num_threads=2, scale=0.2, seed=1)
        save_program(program, tmp_path / "p.json")
        restored = load_program(tmp_path / "p.json")
        assert restored.threads[0].instructions == \
            program.threads[0].instructions

    def test_json_is_plain(self, tmp_path):
        program = build_workload("fft", num_threads=2, scale=0.2, seed=1)
        path = save_program(program, tmp_path / "p.json")
        json.loads(path.read_text())  # parses as standard JSON


def _count_validations(monkeypatch) -> list:
    """Count ``Instruction.validate`` calls made after this point."""
    calls = []
    original = Instruction.validate

    def counting(self, program_length):
        calls.append(self)
        return original(self, program_length)

    monkeypatch.setattr(Instruction, "validate", counting)
    return calls


class TestProgramLoading:
    """Loading shares frozen instructions and reports bad entries by
    position, without changing what a program does or how it fails."""

    @pytest.mark.parametrize("app", WORKLOAD_NAMES)
    def test_shared_instructions_run_byte_identically(self, app):
        program = build_workload(app, num_threads=2, scale=0.05, seed=2)
        loaded = program_from_dict(program_to_dict(program))
        instructions = [instr for thread in loaded.threads
                        for instr in thread.instructions]
        assert len({id(instr) for instr in instructions}) < len(instructions)
        machine = Machine(MachineConfig(num_cores=2), {
            "opt": RecorderConfig(mode=RecorderMode.OPT),
            "base": RecorderConfig(mode=RecorderMode.BASE)})
        assert canonical_json(run_result_to_dict(machine.run(loaded))) == \
            canonical_json(run_result_to_dict(machine.run(program)))

    def test_loaded_instructions_have_exactly_the_constructor_fields(self):
        program = random_program(3, 60, seed=5, lock_probability=0.3)
        loaded = program_from_dict(program_to_dict(program))
        for thread in loaded.threads:
            for instr in thread.instructions:
                fields = {field.name: getattr(instr, field.name)
                          for field in dataclasses.fields(Instruction)}
                assert vars(instr) == vars(Instruction(**fields))

    def test_missing_op(self):
        data = program_to_dict(random_program(2, 10, seed=1))
        del data["threads"][1]["instructions"][4]["op"]
        with pytest.raises(LogFormatError, match=re.escape(
                "program.threads[1].instructions[4] is missing key 'op'")):
            program_from_dict(data)

    @pytest.mark.parametrize("key", ["op", "alu", "rmw"])
    def test_unknown_enum_value(self, key):
        data = program_to_dict(random_program(2, 10, seed=1))
        data["threads"][0]["instructions"][3][key] = "bogus"
        with pytest.raises(LogFormatError, match=re.escape(
                f"program.threads[0].instructions[3].{key} has unknown "
                f"value 'bogus'")):
            program_from_dict(data)

    @pytest.mark.parametrize("where, mutate", [
        ("program.threads must be an array",
         lambda data: data.update(threads=5)),
        ("program is missing key 'threads'",
         lambda data: data.pop("threads")),
        ("program.threads[1] must be an object",
         lambda data: data["threads"].__setitem__(1, 5)),
        ("program.threads[0].instructions must be an array",
         lambda data: data["threads"][0].update(instructions=5)),
        ("program.threads[0].name must be a string",
         lambda data: data["threads"][0].update(name=5)),
        ("program.threads[1].instructions[2] must be an object",
         lambda data: data["threads"][1]["instructions"].__setitem__(2, 5)),
        ("program.threads[0].instructions[3].dst must be an integer",
         lambda data: data["threads"][0]["instructions"][3].update(dst="x")),
        ("program.threads[0].instructions[3].imm must be an integer",
         lambda data: data["threads"][0]["instructions"][3].update(imm=True)),
        ("program.threads[0].instructions[3].off must be an integer",
         lambda data: data["threads"][0]["instructions"][3].update(off=1.5)),
        ("program.threads[0].instructions[3].acq must be a boolean",
         lambda data: data["threads"][0]["instructions"][3].update(acq=1)),
        ("program.threads[0].instructions[3].note must be a string",
         lambda data: data["threads"][0]["instructions"][3].update(note=5)),
        ("program.name must be a string", lambda data: data.update(name=5)),
        ("program.metadata must be an object",
         lambda data: data.update(metadata=[])),
        ("program.initial_memory must be an object",
         lambda data: data.update(initial_memory=[1])),
        ('program.initial_memory["zz"]: the key must be a decimal integer',
         lambda data: data.update(initial_memory={"zz": 1})),
        ('program.initial_memory["08"]: the key must be a decimal integer',
         lambda data: data.update(initial_memory={"08": 1})),
        ('program.initial_memory["8"] must be an integer',
         lambda data: data.update(initial_memory={"8": "x"})),
    ])
    def test_malformed_program_names_the_path(self, where, mutate):
        data = program_to_dict(random_program(2, 10, seed=1))
        mutate(data)
        with pytest.raises(LogFormatError, match=re.escape(where)):
            program_from_dict(data)

    @staticmethod
    def _first_error(data, thread, index) -> str:
        """The message validating entry ``index`` of ``thread`` alone
        gives, built without program_from_dict's decoding or sharing."""
        entry = dict(data["threads"][thread]["instructions"][index])
        instruction = Instruction(
            opcode=Opcode(entry.pop("op")),
            alu_op=AluOp(entry.pop("alu")) if "alu" in entry else None,
            rmw_op=RmwOp(entry.pop("rmw")) if "rmw" in entry else None,
            addr_offset=entry.pop("off", 0), acquire=entry.pop("acq", False),
            release=entry.pop("rel", False), **entry)
        length = len(data["threads"][thread]["instructions"])
        with pytest.raises(WorkloadError) as info:
            instruction.validate(length)
        return str(info.value)

    def test_bad_register_names_the_first_bad_instruction(self):
        program = build_workload("fft", num_threads=2, scale=0.05, seed=1)
        data = program_to_dict(program)
        entries = data["threads"][1]["instructions"]
        # Every copy of a repeated register-writing entry goes bad; the
        # copies share one instruction, and the first copy is reported.
        victim = next(entry for entry in entries[5:]
                      if "dst" in entry and entries.count(entry) > 1)
        for entry in entries:
            if entry == victim:
                entry["dst"] = 40
        first = entries.index(victim)
        later = next(entry for entry in reversed(entries)
                     if entry.get("dst", 40) != 40)
        later["dst"] = 41
        with pytest.raises(WorkloadError) as info:
            program_from_dict(data)
        assert str(info.value) == self._first_error(data, 1, first)
        assert "register r40 out of range" in str(info.value)

    def test_bad_branch_target_names_the_first_bad_instruction(self):
        program = build_workload("radix", num_threads=2, scale=0.05, seed=1)
        data = program_to_dict(program)
        entries = data["threads"][0]["instructions"]
        first = next(index for index, entry in enumerate(entries)
                     if "target" in entry)
        entries[first]["target"] = len(entries) + 1
        later = next(index for index in range(first + 1, len(entries))
                     if "target" in entries[index])
        entries[later]["target"] = -1
        with pytest.raises(WorkloadError) as info:
            program_from_dict(data)
        assert str(info.value) == self._first_error(data, 0, first)
        assert f"branch target {len(entries) + 1} out of range" in \
            str(info.value)

    def test_build_validates_each_instruction_once(self, monkeypatch):
        calls = _count_validations(monkeypatch)
        program = build_workload("fft", num_threads=2, scale=0.05, seed=1)
        assert len(calls) == program.total_instructions()
        assert all(thread._validated for thread in program.threads)

    def test_load_validates_every_instruction(self, monkeypatch):
        data = program_to_dict(build_workload("fft", num_threads=2,
                                              scale=0.05, seed=1))
        calls = _count_validations(monkeypatch)
        loaded = program_from_dict(data)
        assert len(calls) == loaded.total_instructions()


def redigest(root) -> None:
    """Point the manifest of the recording directory ``root`` at its files
    as they now are, as ``save_recording`` would: each payload reference,
    the payload's length and its SHA-256."""
    manifest = json.loads((root / "manifest.json").read_text())
    header = manifest["result"]
    payload = bytearray()

    def add(path):
        blob = path.read_bytes()
        payload.extend(blob)
        return [len(payload) - len(blob), len(blob)]

    header["program"] = add(root / "program.json")
    for name, outputs in header["recordings"].items():
        for output in outputs:
            output["log"] = add(root / "logs" / name /
                                f"core{output['core_id']}.bin")
    manifest.update(payload_bytes=len(payload),
                    payload_sha256=hashlib.sha256(payload).hexdigest())
    (root / "manifest.json").write_text(json.dumps(manifest))


def edit_manifest(root, edit) -> None:
    """Rewrite ``root``'s manifest after ``edit(manifest)`` changed it."""
    manifest = json.loads((root / "manifest.json").read_text())
    edit(manifest)
    (root / "manifest.json").write_text(json.dumps(manifest))


class TestRecordingRoundtrip:
    def test_save_and_load(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        stored = load_recording(root)
        assert set(stored.variants) == {"opt", "base_256"}
        assert stored.cycles == recording.cycles
        assert stored.final_memory == recording.final_memory

    def test_logs_byte_exact(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        stored = load_recording(root)
        for variant in ("opt", "base_256"):
            reloaded = stored.log_entries(variant)
            original = [o.entries for o in recording.recordings[variant]]
            for got, want in zip(reloaded, original):
                # CISNs wrap on disk; compare modulo the field width.
                normalized = [
                    IntervalFrame(e.cisn & 0xFFFF, e.timestamp)
                    if isinstance(e, IntervalFrame) else e for e in want]
                assert got == normalized

    def test_replay_from_disk_verifies(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        stored = load_recording(root)
        for variant in stored.variants:
            result = stored.replay(variant)
            assert result.verified

    def test_edges_roundtrip(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        stored = load_recording(root)
        assert stored.dependence_edges == recording.dependence_edges

    def test_tampered_log_detected(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        log = root / "logs" / "opt" / "core0.bin"
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0xFF
        log.write_bytes(bytes(data))
        with pytest.raises(LogFormatError, match="SHA-256"):
            load_recording(root)

    def test_unknown_variant(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        with pytest.raises(LogFormatError, match="available: base_256, opt"):
            load_recording(root).log_entries("nonesuch")

    def test_version_check(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(LogFormatError):
            load_recording(root)

    def test_config_roundtrip(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        stored = load_recording(root)
        assert stored.config.num_cores == recording.config.num_cores
        assert stored.config.consistency is ConsistencyModel.RC
        assert stored.config.protocol is CoherenceProtocol.SNOOPY
        assert stored.config.replay_cost == recording.config.replay_cost


#: The one recorder variant of the cache-form tests.
OPT_4K = {"opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                                   max_interval_instructions=4096)}


def _run(app="fft", consistency=ConsistencyModel.RC, **options):
    """A 2-core, scale-0.05, seed-1 run of ``app`` under ``OPT_4K``."""
    return Machine(MachineConfig(num_cores=2, consistency=consistency,
                                 seed=1), OPT_4K).run(
        build_workload(app, num_threads=2, scale=0.05, seed=1), **options)


@pytest.fixture(scope="module")
def fft_run():
    return _run()


class TestRecordingIsTheCacheForm:
    """A recording directory is a result-cache entry split into files: a
    manifest holding the entry's header and the payload's digest, and the
    payload's parts (``program.json`` and one file per log)."""

    @pytest.mark.parametrize("options", [
        {}, {"consistency": ConsistencyModel.SC, "with_baselines": True},
        {"consistency": ConsistencyModel.TSO, "with_baselines": True},
        {"app": "lu", "collect_dependence_edges": True},
        {"capture_load_trace": True},
    ], ids=["rc", "sc-baselines", "tso-baselines", "edges", "load-trace"])
    def test_round_trip_is_byte_identical(self, tmp_path, options):
        """The loaded recording's wire form equals the run's, down to the
        stats, TRAQ counters, metrics, baselines, edges and load trace."""
        options = dict(options)
        consistency = options.pop("consistency", ConsistencyModel.RC)
        if options.pop("with_baselines", False):
            options["baseline_factories"] = baseline_factories_for(
                consistency)
        result = _run(options.pop("app", "fft"), consistency, **options)
        stored = load_recording(save_recording(result, tmp_path / "rec"))
        assert isinstance(stored, RunResult)
        assert json.dumps(stored.to_dict()) == json.dumps(result.to_dict())

    def test_files_are_the_payload_parts(self, fft_run, tmp_path):
        """``program.json`` is the program's JSON text and each log file
        its hardware log, as the run file's base64 ``log`` holds it."""
        root = save_recording(fft_run, tmp_path / "rec")
        wire = fft_run.to_dict()
        assert (root / "program.json").read_text() == \
            json.dumps(wire["program"])
        assert program_to_dict(load_program(root / "program.json")) == \
            wire["program"]
        for output in wire["recordings"]["opt_4k"]:
            log = root / "logs" / "opt_4k" / f"core{output['core_id']}.bin"
            assert log.read_bytes() == base64.b64decode(output["log"])
            assert len(log.read_bytes()) == -(-output["bit_length"] // 8)
        manifest = json.loads((root / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION == 2
        assert manifest["result"]["recordings"]["opt_4k"][0]["stats"] == \
            wire["recordings"]["opt_4k"][0]["stats"]

    def test_load_decodes_nothing(self, fft_run, tmp_path, monkeypatch):
        """Loading reads no program and no log through their decoders;
        the first read does."""
        from repro import storage
        from repro.sim import serialize

        root = save_recording(fft_run, tmp_path / "rec")
        calls = []
        monkeypatch.setattr(storage, "program_from_dict",
                            lambda *args: calls.append("program"))
        monkeypatch.setattr(serialize, "decode_log",
                            lambda *args: calls.append("log"))
        stored = load_recording(root)
        assert calls == [] and stored.total_instructions > 0
        stored.log_entries("opt_4k")
        assert calls == ["log", "log"]

    def test_every_sampled_bit_flip_is_refused(self, fft_run, tmp_path):
        """Every 66th bit of each log (core 0's is 501 bytes), and 61 bits
        spread over the program, flipped one at a time: each fails the
        digest at load, before anything decodes."""
        root = save_recording(fft_run, tmp_path / "rec")
        logs = sorted((root / "logs" / "opt_4k").iterdir())
        assert len(logs[0].read_bytes()) == 501
        for part in [*logs, root / "program.json"]:
            clean = part.read_bytes()
            bits = len(clean) * 8
            step = 66 if part in logs else -(-bits // 61)
            for bit in range(0, bits, step):
                data = bytearray(clean)
                data[bit // 8] ^= 0x80 >> (bit % 8)
                part.write_bytes(bytes(data))
                with pytest.raises(LogFormatError, match=re.escape(
                        "does not match its SHA-256")):
                    load_recording(root)
            part.write_bytes(clean)
        assert load_recording(root).replay("opt_4k").verified

    def test_changed_length_is_refused(self, fft_run, tmp_path):
        root = save_recording(fft_run, tmp_path / "rec")
        log = root / "logs" / "opt_4k" / "core1.bin"
        log.write_bytes(log.read_bytes()[:-1])
        with pytest.raises(LogFormatError,
                           match="manifest.payload_bytes says"):
            load_recording(root)

    def test_redigested_bad_log_raises_on_first_read(self, fft_run,
                                                     tmp_path):
        root = save_recording(fft_run, tmp_path / "rec")
        log = root / "logs" / "opt_4k" / "core1.bin"
        data = bytearray(log.read_bytes())
        data[0] |= 0xE0     # the unassigned entry type 7
        log.write_bytes(bytes(data))
        redigest(root)
        stored = load_recording(root)
        assert stored.recording_stats("opt_4k").log_bits > 0
        for _ in range(2):  # a failed decode stays deferred
            with pytest.raises(LogFormatError, match=re.escape(
                    "recordings.opt_4k[1].log: bad entry type 7 at bit 0")):
                stored.replay("opt_4k")

    def test_redigested_bad_program_raises_on_first_read(self, fft_run,
                                                         tmp_path):
        root = save_recording(fft_run, tmp_path / "rec")
        program = json.loads((root / "program.json").read_text())
        program["threads"][1]["instructions"][0] = 5
        (root / "program.json").write_text(json.dumps(program))
        redigest(root)
        stored = load_recording(root)
        assert stored.total_instructions > 0
        with pytest.raises(LogFormatError, match=re.escape(
                "program.threads[1].instructions[0] must be an object")):
            stored.replay("opt_4k")

    def test_version_1_is_refused_by_name(self, fft_run, tmp_path):
        root = save_recording(fft_run, tmp_path / "rec")
        edit_manifest(root, lambda manifest: manifest.update(
            format_version=1))
        with pytest.raises(LogFormatError, match=re.escape(
                "unsupported recording format version 1 (this build "
                "reads 2)")):
            load_recording(root)

    @pytest.mark.parametrize("kind", ["dotdot", "absolute"])
    def test_variant_name_must_be_one_path_component(self, fft_run, tmp_path,
                                                     kind, monkeypatch,
                                                     capsys):
        """A variant renamed to ``..`` or to an absolute directory holding
        its logs is refused before any file is opened."""
        outside = tmp_path / "outside"
        root = save_recording(fft_run, tmp_path / "rec")
        shutil.copytree(root / "logs" / "opt_4k", outside)
        name = ".." if kind == "dotdot" else str(outside)

        def rename(manifest):
            recordings = manifest["result"]["recordings"]
            recordings[name] = recordings.pop("opt_4k")
        edit_manifest(root, rename)
        opened = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda path: (
            opened.append(path), read_bytes(path))[1])
        message = (f"recordings.{name}: a variant name must be one plain "
                   f"path component")
        with pytest.raises(LogFormatError, match=re.escape(message)):
            load_recording(root)
        assert opened == []
        for command in ("replay", "inspect"):
            assert tools_main([command, str(root)]) == 2
            assert message in capsys.readouterr().err

    def test_inspect_summary_reads_the_recorder_stats(self, fft_run,
                                                      tmp_path, capsys,
                                                      monkeypatch):
        """A plain ``inspect DIR`` decodes no log: its per-variant entries,
        intervals and bits are the recorder's own counts."""
        from repro.sim import serialize

        root = save_recording(fft_run, tmp_path / "rec")
        stats = fft_run.recording_stats("opt_4k")
        entries = sum(len(core) for core in fft_run.log_entries("opt_4k"))
        assert entries == (stats.frames + stats.inorder_blocks
                           + stats.reordered_total)

        def refuse(*args):
            raise AssertionError("inspect DIR decoded a log")
        monkeypatch.setattr(serialize, "decode_log", refuse)
        assert tools_main(["inspect", str(root)]) == 0
        bits = stats.log_bits
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"  opt_4k: {entries} entries, {stats.frames} intervals, "
            f"{bits} bits ({bits / 8 / 1024:.2f} KiB on disk)")


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
        loaded = stored.dependence_edges["default"]
        assert loaded == original
        assert all(isinstance(edge, IntervalEdge) for edge in loaded)
        # The on-disk form is plain 4-int rows, wire-stable.
        rows = json.loads((root / "manifest.json").read_text())[
            "result"]["dependence_edges"]["default"]
        assert rows == [[e.src_core, e.src_cisn, e.dst_core, e.dst_cisn]
                        for e in original]

    def test_edges_not_collected_are_absent(self, tmp_path):
        """A variant recorded without edges has no entry, which tells "not
        collected" apart from "no edges"."""
        program = litmus_program(LITMUS_TESTS["MP"], staggers=(0, 5))
        result = Machine(MachineConfig(num_cores=2)).run(program)
        stored = load_recording(save_recording(result, tmp_path / "rec"))
        assert stored.dependence_edges == {}

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
        meta = manifest["result"]["recordings"]["default"][0]["config"]
        assert meta["cisn_bits"] == 16
        assert meta["nmi_bits"] == 4
        stored = load_recording(root)
        replayed = stored.replay("default")
        assert replayed.verified


class TestCli:
    def test_record_replay_inspect(self, tmp_path, capsys):
        out = tmp_path / "rec"
        assert tools_main(["record", "--workload", "fft", "--cores", "2",
                           "--scale", "0.15", "--variants", "opt_inf",
                           "--edges", "--out", str(out)]) == 0
        assert tools_main(["replay", str(out)]) == 0
        assert "VERIFIED" in capsys.readouterr().out
        assert tools_main(["replay", str(out), "--variant", "opt_inf",
                           "--parallel"]) == 0
        assert "parallel replay OK" in capsys.readouterr().out
        assert tools_main(["inspect", str(out), "-v"]) == 0
        assert "IntervalFrame" in capsys.readouterr().out

    def test_record_saved_program(self, tmp_path, capsys):
        program = random_program(2, 30, seed=6)
        save_program(program, tmp_path / "p.json")
        out = tmp_path / "rec"
        assert tools_main(["record", "--program", str(tmp_path / "p.json"),
                           "--variants", "base_inf", "--out",
                           str(out)]) == 0
        assert tools_main(["replay", str(out)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_record_directory_protocol(self, tmp_path, capsys):
        out = tmp_path / "rec"
        assert tools_main(["record", "--workload", "ocean", "--cores", "2",
                           "--scale", "0.15", "--protocol", "directory",
                           "--variants", "opt_1024", "--out",
                           str(out)]) == 0
        assert tools_main(["replay", str(out)]) == 0
        assert "VERIFIED" in capsys.readouterr().out
