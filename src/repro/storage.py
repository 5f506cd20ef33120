"""On-disk persistence for programs and recordings.

A recording saved with :func:`save_recording` is a directory:

.. code-block:: text

    <dir>/
      manifest.json          # format version, config, per-variant metadata,
                             # verification state (final registers, memory,
                             # per-core instruction counts), run statistics
      program.json           # the recorded program, instruction by instruction
      logs/<variant>/core<i>.bin   # the bit-exact interval logs
      edges/<variant>.json   # pairwise interval edges (when collected)

The interval logs are stored in the recorder's binary format
(:mod:`repro.recorder.logfmt`), so the on-disk size *is* the hardware log
size.  :func:`load_recording` reconstructs everything needed to replay —
including the verification state, so a replay of a loaded recording is
checked bit-exactly against the original execution even in a fresh process.
The manifest is untrusted input: a missing or wrongly typed key, down to
each config field, raises :class:`LogFormatError` naming its path.
"""

from __future__ import annotations

import dataclasses
import json
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

from .common.config import (
    CoherenceProtocol,
    ConsistencyModel,
    CoreConfig,
    L1Config,
    L2Config,
    MachineConfig,
    MemoryConfig,
    RecorderConfig,
    RecorderMode,
    ReplayCostConfig,
    RingConfig,
)
from .common.errors import LogFormatError
from .isa.instructions import AluOp, Instruction, Opcode, RmwOp
from .isa.program import Program, ThreadProgram
from .recorder.logfmt import decode_log, encode_log
from .recorder.ordering import IntervalEdge
from .replay.replayer import (ReplayResult, Replayer, pick_variant,
                              verify_and_cost)
from .sim.machine import RunResult
from .sim.serialize import (check_int_rows, check_keys, check_type,
                            final_state_from_dict, int_map_from_dict)

__all__ = ["save_program", "load_program", "save_recording",
           "load_recording", "StoredRecording", "FORMAT_VERSION",
           "config_to_dict", "config_from_dict",
           "program_to_dict", "program_from_dict"]

FORMAT_VERSION = 1

#: Value -> member for the enum fields of an instruction dict; a member
#: maps to itself, as ``Enum(member)`` does.
_OPCODES = {key: op for op in Opcode for key in (op.value, op)}
_ALU_OPS = {key: op for op in AluOp for key in (op.value, op)}
_RMW_OPS = {key: op for op in RmwOp for key in (op.value, op)}


# ------------------------------------------------------------- programs

def _instruction_to_dict(instr: Instruction) -> dict:
    out: dict = {"op": instr.opcode.value}
    for name in ("dst", "src1", "src2", "imm", "addr_base", "target"):
        value = getattr(instr, name)
        if value is not None:
            out[name] = value
    if instr.addr_offset:
        out["off"] = instr.addr_offset
    if instr.alu_op is not None:
        out["alu"] = instr.alu_op.value
    if instr.rmw_op is not None:
        out["rmw"] = instr.rmw_op.value
    if instr.acquire:
        out["acq"] = True
    if instr.release:
        out["rel"] = True
    if instr.note:
        out["note"] = instr.note
    return out


#: The JSON types of the optional fields of an instruction dict.
_INSTRUCTION_FIELDS = {
    **dict.fromkeys(("dst", "src1", "src2", "imm", "addr_base", "off",
                     "target"), (int,)),
    "acq": (bool,), "rel": (bool,), "note": (str,)}


def _instruction_path(thread: int, index: int) -> str:
    return f"program.threads[{thread}].instructions[{index}]"


def _member(members: dict, data: dict, key: str, thread: int, index: int):
    value = data[key]
    try:
        return members[value]
    except (KeyError, TypeError):
        raise LogFormatError(f"{_instruction_path(thread, index)}.{key} has "
                             f"unknown value {value!r}") from None


def _instruction_from_dict(data: dict, thread: int, index: int) -> Instruction:
    if "op" not in data:
        raise LogFormatError(
            f"{_instruction_path(thread, index)} is missing key 'op'")
    for key, value in data.items():
        types = _INSTRUCTION_FIELDS.get(key)
        if types is not None and type(value) not in types:
            check_type(value, types,
                       f"{_instruction_path(thread, index)}.{key}")
    # Filled in the way pickle restores a frozen dataclass: the generated
    # __init__ makes one object.__setattr__ call per field, which was the
    # largest cost of loading a program.  tests/sim/test_storage.py pins
    # that the result has exactly the fields Instruction(...) sets.
    instruction = object.__new__(Instruction)
    instruction.__dict__.update(
        opcode=_member(_OPCODES, data, "op", thread, index),
        dst=data.get("dst"),
        src1=data.get("src1"),
        src2=data.get("src2"),
        imm=data.get("imm"),
        addr_base=data.get("addr_base"),
        addr_offset=data.get("off", 0),
        target=data.get("target"),
        alu_op=(_member(_ALU_OPS, data, "alu", thread, index)
                if "alu" in data else None),
        rmw_op=(_member(_RMW_OPS, data, "rmw", thread, index)
                if "rmw" in data else None),
        acquire=data.get("acq", False),
        release=data.get("rel", False),
        note=data.get("note", ""),
    )
    return instruction


def program_to_dict(program: Program) -> dict:
    """JSON-able dict of a program (instruction-by-instruction)."""
    return {
        "name": program.name,
        "metadata": program.metadata,
        "initial_memory": {str(addr): value for addr, value
                           in program.initial_memory.items()},
        "threads": [
            {"name": thread.name,
             "instructions": [_instruction_to_dict(instr)
                              for instr in thread.instructions]}
            for thread in program.threads
        ],
    }


def program_from_dict(data: dict) -> Program:
    """Rebuild (and validate) a program written by :func:`program_to_dict`.

    Entries with equal items share one frozen :class:`Instruction`, so the
    loaded program must not be keyed on instruction identity; a field's
    type is checked on the first of equal entries.  A missing or wrongly
    typed key, an unknown ``op``/``alu``/``rmw`` value or a bad
    ``initial_memory`` key or value raises :class:`LogFormatError` naming
    its path, e.g. ``program.threads[0].instructions[3].dst``.
    """
    check_keys(data, {"threads": (list,)}, "program")
    name = data.get("name", "program")
    metadata = data.get("metadata", {})
    check_type(name, (str,), "program.name")
    check_type(metadata, (dict,), "program.metadata")
    shared: dict[tuple, Instruction] = {}
    threads = []
    for thread_index, thread in enumerate(data["threads"]):
        where = f"program.threads[{thread_index}]"
        check_keys(thread, {"instructions": (list,)}, where)
        thread_name = thread.get("name", "")
        check_type(thread_name, (str,), f"{where}.name")
        instructions = []
        for index, entry in enumerate(thread["instructions"]):
            try:
                key = tuple(entry.items())
            except AttributeError:  # not a JSON object
                check_type(entry, (dict,), f"{where}.instructions[{index}]")
            try:
                instruction = shared[key]
            except KeyError:
                instruction = shared[key] = _instruction_from_dict(
                    entry, thread_index, index)
            except TypeError:  # an unhashable field value: not shared
                instruction = _instruction_from_dict(entry, thread_index,
                                                     index)
            instructions.append(instruction)
        threads.append(ThreadProgram(instructions, name=thread_name))
    return Program(
        threads,
        initial_memory=int_map_from_dict(data.get("initial_memory", {}),
                                        "program.initial_memory"),
        name=name, metadata=metadata,
    ).validate()


def save_program(program: Program, path: str | Path) -> Path:
    """Write a program to ``path`` as JSON (see ``program_to_dict``)."""
    path = Path(path)
    path.write_text(json.dumps(program_to_dict(program)))
    return path


def load_program(path: str | Path) -> Program:
    """Load a program saved by :func:`save_program`."""
    return program_from_dict(json.loads(Path(path).read_text()))


# --------------------------------------------------------------- config

def config_to_dict(config) -> dict:
    """JSON-able dict of any config dataclass (enums by value)."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            out[field.name] = config_to_dict(value)
        elif isinstance(value, (ConsistencyModel, RecorderMode,
                                CoherenceProtocol)):
            out[field.name] = value.value
        else:
            out[field.name] = value
    return out


_NESTED = {"core": CoreConfig, "l1": L1Config, "l2": L2Config,
           "ring": RingConfig, "memory": MemoryConfig,
           "recorder": RecorderConfig, "replay_cost": ReplayCostConfig}
_ENUM_FIELDS = {"consistency": ConsistencyModel, "protocol": CoherenceProtocol,
                "mode": RecorderMode}
#: The JSON types a config field of each annotated type may hold.
_FIELD_TYPES = {"int": (int,), "float": (float, int), "bool": (bool,),
                "int | None": (int, type(None))}


def _config_row(field) -> tuple:
    """One field's ``(name, JSON types, decode)`` row, where
    ``decode(value, path)`` builds a nested config or an enum member."""
    if field.name in _NESTED:
        nested = _NESTED[field.name]
        return (field.name, (dict,),
                lambda value, path: config_from_dict(nested, value, path))
    if field.name in _ENUM_FIELDS:
        members = {member.value: member for member in _ENUM_FIELDS[field.name]}

        def decode(value, path):
            if value not in members:
                raise LogFormatError(
                    f"{path} has unknown value {value!r}; expected one of "
                    f"{', '.join(members)}")
            return members[value]
        return field.name, (str,), decode
    return field.name, _FIELD_TYPES[field.type], None


#: The field table of each config class.
_CONFIG_TABLES = {cls: [_config_row(field) for field in dataclasses.fields(cls)]
                  for cls in (MachineConfig, *_NESTED.values())}


def config_from_dict(cls, data: dict, path: str = "config"):
    """Rebuild a config dataclass written by :func:`config_to_dict`.

    A non-object config, a field of the wrong JSON type or an unknown enum
    value raises :class:`LogFormatError` naming its path below ``path``,
    e.g. ``config.l1.assoc``; keys the class lacks are ignored.
    """
    check_type(data, (dict,), path)
    kwargs = {}
    for name, types, decode in _CONFIG_TABLES[cls]:
        if name in data:
            value = data[name]
            if type(value) not in types:
                check_type(value, types, f"{path}.{name}")
            kwargs[name] = (value if decode is None
                            else decode(value, f"{path}.{name}"))
    return cls(**kwargs)


# ------------------------------------------------------------ recordings

def save_recording(result: RunResult, path: str | Path) -> Path:
    """Persist a :class:`~repro.sim.machine.RunResult` to ``path``."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    save_program(result.program, root / "program.json")

    variants = {}
    for name, outputs in result.recordings.items():
        variant_dir = root / "logs" / name
        variant_dir.mkdir(parents=True, exist_ok=True)
        cores = []
        for output in outputs:
            data, bits = encode_log(output.entries, output.config)
            log_path = variant_dir / f"core{output.core_id}.bin"
            log_path.write_bytes(data)
            cores.append({"core_id": output.core_id, "bit_length": bits})
        variants[name] = {
            "recorder_config": config_to_dict(outputs[0].config),
            "cores": cores,
        }

    edges_meta = {}
    for name, edges in result.dependence_edges.items():
        edges_dir = root / "edges"
        edges_dir.mkdir(exist_ok=True)
        (edges_dir / f"{name}.json").write_text(json.dumps(
            [[e.src_core, e.src_cisn, e.dst_core, e.dst_cisn]
             for e in edges]))
        edges_meta[name] = len(edges)

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(result.config),
        "cycles": result.cycles,
        "bus_transactions": result.bus_transactions,
        "variants": variants,
        "edges": edges_meta,
        "verification": {
            "final_memory": {str(addr): value for addr, value
                             in result.final_memory.items()},
            "cores": [
                {"core_id": core.core_id,
                 "instructions": core.instructions,
                 "final_regs": core.final_regs}
                for core in result.cores
            ],
        },
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


#: The JSON types of each key of ``manifest.json`` (after the version).
_MANIFEST_KEYS = {"config": (dict,), "cycles": (int,),
                  "bus_transactions": (int,), "variants": (dict,),
                  "edges": (dict,), "verification": (dict,)}
_VARIANT_KEYS = {"recorder_config": (dict,), "cores": (list,)}
_LOG_KEYS = {"core_id": (int,), "bit_length": (int,)}
_VERIFICATION_KEYS = {"final_memory": (dict,), "cores": (list,)}
_VERIFIED_CORE_KEYS = {"core_id": (int,), "instructions": (int,),
                       "final_regs": (list,)}


def _check_manifest(manifest) -> None:
    """Check every key of a manifest against the tables above; the first
    mismatch raises :class:`LogFormatError` naming its path, e.g.
    ``manifest.variants.opt_4096.cores[0].bit_length``."""
    check_keys(manifest, _MANIFEST_KEYS, "manifest")
    for name, meta in manifest["variants"].items():
        where = f"manifest.variants.{name}"
        check_keys(meta, _VARIANT_KEYS, where)
        for index, core in enumerate(meta["cores"]):
            check_keys(core, _LOG_KEYS, f"{where}.cores[{index}]")
    for name, count in manifest["edges"].items():
        check_type(count, (int,), f"manifest.edges.{name}")
    verification = manifest["verification"]
    check_keys(verification, _VERIFICATION_KEYS, "manifest.verification")
    for index, core in enumerate(verification["cores"]):
        check_keys(core, _VERIFIED_CORE_KEYS,
                   f"manifest.verification.cores[{index}]")
    final_state_from_dict(verification["final_memory"],
                          verification["cores"], "manifest.verification")


class StoredRecording:
    """A recording loaded from disk; replayable and self-verifying.

    It offers the replay engine what a :class:`RunResult` does:
    ``program``, ``config``, ``cycles``, ``final_memory``, ``cores`` (each
    core's ``core_id``, ``instructions`` and ``final_regs``),
    ``load_trace`` (never stored, so None), ``dependence_edges``,
    ``variants``, ``log_entries`` and ``recorder_config``.
    """

    load_trace = None

    def __init__(self, root: Path, manifest: dict, program: Program):
        _check_manifest(manifest)
        self.root = root
        self.manifest = manifest
        self.program = program
        self.config = config_from_dict(MachineConfig, manifest["config"],
                                       "manifest.config")
        self.cycles = manifest["cycles"]
        verification = manifest["verification"]
        self.final_memory = {int(addr): value for addr, value in
                             verification["final_memory"].items()}
        self.cores = [SimpleNamespace(**core)
                      for core in verification["cores"]]
        self._recorder_configs = {
            name: config_from_dict(
                RecorderConfig, meta["recorder_config"],
                f"manifest.variants.{name}.recorder_config")
            for name, meta in manifest["variants"].items()}

    @property
    def variants(self) -> tuple[str, ...]:
        """Recorder variant names in sorted order (the first is the
        default replay and inspect target)."""
        return tuple(sorted(self.manifest["variants"]))

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    def recorder_config(self, variant: str) -> RecorderConfig:
        """The recorder configuration one variant's logs were made with."""
        return self._recorder_configs[pick_variant(self, variant)]

    def log_entries(self, variant: str) -> list[list]:
        """Decode one variant's interval log per core."""
        variant = pick_variant(self, variant)
        recorder_config = self._recorder_configs[variant]
        meta = self.manifest["variants"][variant]
        per_core = []
        for core in sorted(meta["cores"], key=lambda c: c["core_id"]):
            data = (self.root / "logs" / variant /
                    f"core{core['core_id']}.bin").read_bytes()
            per_core.append(decode_log(data, core["bit_length"],
                                       recorder_config))
        return per_core

    def edges(self, variant: str) -> list[IntervalEdge]:
        """One variant's pairwise interval edges ([] if not collected)."""
        if variant not in self.manifest["edges"]:
            return []
        rows = json.loads(
            (self.root / "edges" / f"{variant}.json").read_text())
        check_int_rows(rows, 4, f"edges/{variant}.json")
        return [IntervalEdge(*row) for row in rows]

    @cached_property
    def dependence_edges(self) -> dict[str, list[IntervalEdge]]:
        """Edges per variant that collected them (``record --edges``), as
        in ``RunResult.dependence_edges``: a variant recorded without
        edges is absent, one with zero edges maps to []."""
        return {name: self.edges(name) for name in self.manifest["edges"]}

    def replay(self, variant: str, *, verify: bool = True) -> ReplayResult:
        """Replay a stored variant, verifying against the stored execution."""
        replayer = Replayer.of(self, variant)
        return verify_and_cost(self, replayer, *replayer.replay(),
                               verify=verify)


def load_recording(path: str | Path) -> StoredRecording:
    """Open a recording directory written by :func:`save_recording`."""
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    check_type(manifest, (dict,), "manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise LogFormatError(
            f"unsupported recording format version {version!r} "
            f"(this build reads {FORMAT_VERSION})")
    program = load_program(root / "program.json")
    return StoredRecording(root, manifest, program)
