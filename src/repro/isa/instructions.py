"""A tiny RISC-like ISA for the simulated multicore.

The ISA is intentionally small: the RelaxReplay mechanism only cares about
the stream of memory-access instructions, their perform/counting events, and
the control/data dependences that make out-of-order execution interesting.
Each thread owns 32 64-bit general-purpose registers; all memory accesses
are 8-byte, 8-byte-aligned words of a flat shared address space.

Memory-ordering semantics follow release consistency:

* a plain ``LOAD``/``STORE`` may be reordered by the core under RC;
* a ``LOAD`` with ``acquire=True`` prevents *later* accesses from issuing
  before it performs;
* a ``STORE`` with ``release=True`` waits for all *earlier* accesses to
  perform before it issues;
* ``FENCE`` orders everything;
* ``RMW`` (atomic read-modify-write) has acquire+release semantics, as
  typical lock primitives do.

Under TSO and SC the core's issue logic imposes stronger orderings and the
flags are subsumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, NamedTuple

from ..common.errors import WorkloadError

__all__ = [
    "Opcode",
    "AluOp",
    "RmwOp",
    "Instruction",
    "NUM_REGS",
    "WORD_BYTES",
    "MASK64",
]

NUM_REGS = 32
WORD_BYTES = 8
MASK64 = (1 << 64) - 1


class Opcode(enum.Enum):
    """Instruction classes understood by the core."""

    LOAD = "load"
    STORE = "store"
    RMW = "rmw"        # atomic read-modify-write (lock/atomic-add primitive)
    FENCE = "fence"    # full memory fence
    ALU = "alu"
    MOVI = "movi"      # load immediate
    BEQZ = "beqz"      # branch if register == 0
    BNEZ = "bnez"      # branch if register != 0
    JUMP = "jump"
    NOP = "nop"
    HALT = "halt"


class AluOp(enum.Enum):
    """Arithmetic/logic operations (64-bit wrapping)."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    XOR = "xor"
    AND = "and"
    OR = "or"
    SHL = "shl"
    SHR = "shr"
    CMPLT = "cmplt"  # dst = 1 if a < b else 0 (unsigned)
    CMPEQ = "cmpeq"  # dst = 1 if a == b else 0


class RmwOp(enum.Enum):
    """Atomic read-modify-write flavours."""

    TAS = "tas"              # test-and-set: dst = old; mem = 1
    FETCH_ADD = "fetch_add"  # dst = old; mem = old + src
    SWAP = "swap"            # dst = old; mem = src
    CAS = "cas"              # dst = old; mem = src if old == imm


@dataclass(frozen=True)
class Instruction:
    """One static instruction.

    Field usage by opcode (unused fields stay at their defaults):

    ============  =====================================================
    LOAD          ``dst``, ``addr_base`` (reg or None), ``addr_offset``,
                  ``acquire``
    STORE         ``src1`` (value reg), ``addr_base``, ``addr_offset``,
                  ``release``
    RMW           ``rmw_op``, ``dst`` (old value), ``src1`` (operand reg,
                  may be None for TAS), ``imm`` (CAS compare value),
                  ``addr_base``, ``addr_offset``
    ALU           ``alu_op``, ``dst``, ``src1``, ``src2`` or ``imm``
    MOVI          ``dst``, ``imm``
    BEQZ/BNEZ     ``src1`` (condition reg), ``target``
    JUMP          ``target``
    FENCE/NOP/HALT  —
    ============  =====================================================
    """

    opcode: Opcode
    dst: int | None = None
    src1: int | None = None
    src2: int | None = None
    imm: int | None = None
    addr_base: int | None = None
    addr_offset: int = 0
    target: int | None = None
    alu_op: AluOp | None = None
    rmw_op: RmwOp | None = None
    acquire: bool = False
    release: bool = False
    # Free-form annotation used by workload generators for debugging/tracing.
    note: str = field(default="", compare=False)

    @property
    def is_memory(self) -> bool:
        """True for instructions the recorder tracks (loads/stores/RMWs)."""
        return self.opcode in _MEMORY

    @property
    def is_load_like(self) -> bool:
        """True if the instruction reads memory (LOAD or RMW)."""
        return self.opcode in (Opcode.LOAD, Opcode.RMW)

    @property
    def is_store_like(self) -> bool:
        """True if the instruction writes memory (STORE or RMW)."""
        return self.opcode in (Opcode.STORE, Opcode.RMW)

    @property
    def is_branch(self) -> bool:
        return self.opcode in _BRANCHES

    def source_registers(self) -> tuple[int, ...]:
        """Registers this instruction reads (for dependence tracking)."""
        sources = _ROLES[self.opcode._value_].sources(self)
        return tuple(register for register in sources if register is not None)

    def destination_register(self) -> int | None:
        """Register written by this instruction, if any."""
        destination = _ROLES[self.opcode._value_].destination
        return None if destination is None else getattr(self, destination)

    def validate(self, program_length: int) -> None:
        """Sanity-check register indices and branch targets."""
        roles = _ROLES[self.opcode._value_]
        for register in roles.registers(self):
            if register is not None and not 0 <= register < NUM_REGS:
                raise WorkloadError(f"register r{register} out of range in {self}")
        if roles.branch and (self.target is None
                             or not 0 <= self.target <= program_length):
            raise WorkloadError(f"branch target {self.target} out of range in {self}")
        if roles.memory and self.addr_base is None and self.addr_offset % WORD_BYTES:
            raise WorkloadError(f"unaligned absolute address in {self}")
        if roles.operation is not None and getattr(self, roles.operation) is None:
            raise WorkloadError(f"{self.opcode.name} instruction without "
                                f"{roles.operation}: {self}")


_MEMORY = (Opcode.LOAD, Opcode.STORE, Opcode.RMW)
_BRANCHES = (Opcode.BEQZ, Opcode.BNEZ, Opcode.JUMP)


class _Roles(NamedTuple):
    """What dependence tracking and validation read off one opcode."""

    sources: Callable[[Instruction], tuple]  # source register fields
    destination: str | None                   # the register field written
    registers: Callable[[Instruction], tuple]  # sources, then destination
    branch: bool
    memory: bool
    operation: str | None                     # alu_op/rmw_op, required


def _fields_getter(names: tuple[str, ...]) -> Callable[[Instruction], tuple]:
    """``instruction -> tuple`` of the named fields (``attrgetter`` gives
    a bare value for one name and has no zero-name form)."""
    if not names:
        return lambda instruction: ()
    if len(names) == 1:
        single = attrgetter(names[0])
        return lambda instruction: (single(instruction),)
    return attrgetter(*names)


def _roles(opcode: Opcode, sources: tuple[str, ...], destination: str | None,
           operation: str | None) -> _Roles:
    written = () if destination is None else (destination,)
    return _Roles(_fields_getter(sources), destination,
                  _fields_getter(sources + written), opcode in _BRANCHES,
                  opcode in _MEMORY, operation)


#: Each opcode's register fields, written down once: the sources it reads,
#: in dependence-tracking order, and the destination it writes.  A source
#: field left ``None`` is unused (an ALU immediate, a TAS without operand,
#: an absolute address).  Keyed by ``Opcode`` value and looked up through
#: ``_value_``, a plain attribute: hashing an enum member, or reading its
#: ``value`` property, is a Python-level call.
_ROLES = {
    opcode.value: _roles(opcode, sources, destination, operation)
    for opcode, sources, destination, operation in (
        (Opcode.LOAD, ("addr_base",), "dst", None),
        (Opcode.STORE, ("src1", "addr_base"), None, None),
        (Opcode.RMW, ("src1", "addr_base"), "dst", "rmw_op"),
        (Opcode.FENCE, (), None, None),
        (Opcode.ALU, ("src1", "src2"), "dst", "alu_op"),
        (Opcode.MOVI, (), "dst", None),
        (Opcode.BEQZ, ("src1",), None, None),
        (Opcode.BNEZ, ("src1",), None, None),
        (Opcode.JUMP, (), None, None),
        (Opcode.NOP, (), None, None),
        (Opcode.HALT, (), None, None),
    )
}
