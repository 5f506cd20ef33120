"""On-disk persistence for programs and recordings.

A recording directory (:func:`save_recording`) is the result cache's entry
for a :class:`~repro.sim.machine.RunResult`, split into files:

.. code-block:: text

    <dir>/
      manifest.json    # {"format_version": 2, "payload_bytes",
                       #  "payload_sha256", "result": the entry's header}
      program.json                # the payload: the program's JSON text,
      logs/<variant>/core<i>.bin  # then each raw log, in header order

The logs are the recorder's binary format (:mod:`repro.recorder.logfmt`),
so the on-disk size *is* the hardware log size.  :func:`load_recording`
checks the payload's length and SHA-256 and returns a
:class:`StoredRecording` whose program and logs decode on first read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path, PurePath

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
# Unused here, but bound for perfbench/spans.py, which wraps each by name
# in this module's namespace.
from .recorder.logfmt import decode_log, encode_log  # noqa: F401
from .replay.replayer import (ReplayResult, Replayer, pick_variant,
                              verify_and_cost)
from .sim.machine import RunResult
from .sim.serialize import (check_keys, check_type, int_map_from_dict,
                            run_result_from_dict, split_run_result)

__all__ = ["save_program", "load_program", "save_recording",
           "load_recording", "StoredRecording", "FORMAT_VERSION",
           "config_to_dict", "config_from_dict",
           "program_to_dict", "program_from_dict"]

#: v2: the result cache's entry form, digest-checked.
FORMAT_VERSION = 2

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

def _parts(root: Path, header: dict) -> list[tuple[object, Path]]:
    """A cache-form header's payload parts in payload order (the program,
    then each log in header order): each one's reference and file.  A
    variant name that is not one plain path component, or a log without
    an integer ``core_id``, raises :class:`LogFormatError` naming it."""
    parts = [(header.get("program"), root / "program.json")]
    recordings = header.get("recordings")
    check_type(recordings, (dict,), "run result key 'recordings'")
    for name, outputs in recordings.items():
        where = f"recordings.{name}"
        if name in (".", "..") or "\0" in name or \
                PurePath(name).parts != (name,):
            raise LogFormatError(f"{where}: a variant name must be one plain "
                                 f"path component")
        check_type(outputs, (list,), where)
        for index, output in enumerate(outputs):
            check_keys(output, {"core_id": (int,)}, f"{where}[{index}]")
            parts.append((output.get("log"), root / "logs" / name /
                          f"core{output['core_id']}.bin"))
    return parts


def save_recording(result: RunResult, path: str | Path) -> Path:
    """Persist a :class:`~repro.sim.machine.RunResult` to ``path`` as its
    cache form: the header in ``manifest.json``, each payload part in its
    own file."""
    root = Path(path)
    header, payload = split_run_result(result.to_dict())
    for (offset, length), part in _parts(root, header):
        part.parent.mkdir(parents=True, exist_ok=True)
        part.write_bytes(payload[offset:offset + length])
    (root / "manifest.json").write_text(json.dumps({
        "format_version": FORMAT_VERSION,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "result": header}))
    return root


class StoredRecording(RunResult):
    """A :class:`~repro.sim.machine.RunResult` loaded from a recording
    directory; its program and logs decode on first read."""

    def log_entries(self, variant: str) -> list[list]:
        """One variant's interval log per core; a variant the recording
        lacks raises :class:`LogFormatError` naming the available ones."""
        return super().log_entries(pick_variant(self, variant))

    def replay(self, variant: str, *, verify: bool = True) -> ReplayResult:
        """Replay a stored variant, verifying against the stored execution."""
        replayer = Replayer.of(self, variant)
        return verify_and_cost(self, replayer, *replayer.replay(),
                               verify=verify)


def load_recording(path: str | Path) -> StoredRecording:
    """Open a recording directory written by :func:`save_recording`.

    Every file is untrusted input.  The payload's parts are read in the
    header's order and must match its length and SHA-256, so a changed
    byte of ``program.json`` or of a log fails here; the rest of the
    header is checked as a run file is
    (:func:`~repro.sim.serialize.run_result_from_dict`).  Each mismatch
    raises :class:`LogFormatError` naming its path.
    """
    root = Path(path)
    manifest = json.loads((root / "manifest.json").read_text())
    check_type(manifest, (dict,), "manifest")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise LogFormatError(
            f"unsupported recording format version {version!r} "
            f"(this build reads {FORMAT_VERSION})")
    check_keys(manifest, {"payload_bytes": (int,), "payload_sha256": (str,),
                          "result": (dict,)}, "manifest")
    header = manifest["result"]
    payload = b"".join(part.read_bytes() for _, part in _parts(root, header))
    if len(payload) != manifest["payload_bytes"]:
        raise LogFormatError(f"the payload (program.json and the logs) has "
                             f"{len(payload)} bytes, manifest.payload_bytes "
                             f"says {manifest['payload_bytes']}")
    if hashlib.sha256(payload).hexdigest() != manifest["payload_sha256"]:
        raise LogFormatError("the payload (program.json and the logs) does "
                             "not match its SHA-256, manifest.payload_sha256")
    result = run_result_from_dict(header, payload)
    # Copied field by field as stored: a read through the descriptors
    # would decode the program and every log here.
    stored = object.__new__(StoredRecording)
    vars(stored).update(vars(result))
    return stored
