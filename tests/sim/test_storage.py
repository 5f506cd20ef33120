"""Tests for on-disk recording persistence and the CLI tools."""

import dataclasses
import json
import re

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
from repro.isa.instructions import AluOp, Instruction, Opcode, RmwOp
from repro.sim import Machine
from repro.sim.serialize import run_result_to_dict
from repro.storage import (
    FORMAT_VERSION,
    load_program,
    load_recording,
    program_from_dict,
    program_to_dict,
    save_program,
    save_recording,
)
from repro.tools import main as tools_main
from repro.workloads import WORKLOAD_NAMES, build_workload, random_program


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
            from repro.recorder.logfmt import IntervalFrame
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
        assert stored.edges("opt") == recording.dependence_edges["opt"]

    def test_tampered_log_detected(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        log = root / "logs" / "opt" / "core0.bin"
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0xFF
        log.write_bytes(bytes(data))
        stored = load_recording(root)
        from repro.common.errors import ReplayDivergenceError
        with pytest.raises((ReplayDivergenceError, LogFormatError)):
            stored.replay("opt")

    def test_unknown_variant(self, recording, tmp_path):
        root = save_recording(recording, tmp_path / "rec")
        with pytest.raises(LogFormatError):
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
