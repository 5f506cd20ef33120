"""Assembler-style builder DSL for constructing thread programs.

Workload generators (``repro.workloads``) express SPLASH-2-like kernels with
this builder: labelled branches, spin locks, barriers and atomic counters are
provided as macros on top of the raw ISA.  Labels may be referenced before
they are defined; :meth:`ThreadBuilder.build` resolves them.
"""

from __future__ import annotations

import dataclasses
import itertools

from ..common.errors import WorkloadError
from .instructions import AluOp, Instruction, Opcode, RmwOp
from .program import ThreadProgram

__all__ = ["ThreadBuilder"]


class ThreadBuilder:
    """Accumulates instructions for a single thread."""

    def __init__(self, name: str = ""):
        self.name = name
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._pending: dict[int, str] = {}  # instruction index -> label name
        self._unique = itertools.count()

    # ------------------------------------------------------------------ core

    def emit(self, instruction: Instruction) -> "ThreadBuilder":
        """Append a raw instruction."""
        self._instructions.append(instruction)
        return self

    def label(self, name: str | None = None) -> str:
        """Define a label at the current position; returns its name."""
        if name is None:
            name = f"_L{next(self._unique)}"
        if name in self._labels:
            raise WorkloadError(f"duplicate label {name!r} in thread {self.name!r}")
        self._labels[name] = len(self._instructions)
        return name

    def fresh_label(self) -> str:
        """Reserve a label name to be placed later with :meth:`place_label`."""
        return f"_L{next(self._unique)}"

    def place_label(self, name: str) -> None:
        """Bind a previously reserved label name to the current position."""
        if name in self._labels:
            raise WorkloadError(f"duplicate label {name!r} in thread {self.name!r}")
        self._labels[name] = len(self._instructions)

    # ---------------------------------------------------------- memory ops

    def load(self, dst: int, *, base: int | None = None, offset: int = 0,
             acquire: bool = False, note: str = "") -> "ThreadBuilder":
        return self.emit(Instruction(Opcode.LOAD, dst=dst, addr_base=base,
                                     addr_offset=offset, acquire=acquire, note=note))

    def store(self, src: int, *, base: int | None = None, offset: int = 0,
              release: bool = False, note: str = "") -> "ThreadBuilder":
        return self.emit(Instruction(Opcode.STORE, src1=src, addr_base=base,
                                     addr_offset=offset, release=release, note=note))

    def rmw(self, op: RmwOp, dst: int, *, base: int | None = None, offset: int = 0,
            src: int | None = None, imm: int | None = None,
            note: str = "") -> "ThreadBuilder":
        return self.emit(Instruction(Opcode.RMW, rmw_op=op, dst=dst, src1=src,
                                     imm=imm, addr_base=base, addr_offset=offset,
                                     note=note))

    def fence(self) -> "ThreadBuilder":
        return self.emit(Instruction(Opcode.FENCE))

    # ------------------------------------------------------------- ALU ops

    def movi(self, dst: int, imm: int) -> "ThreadBuilder":
        return self.emit(Instruction(Opcode.MOVI, dst=dst, imm=imm))

    def alu(self, op: AluOp, dst: int, src1: int, *, src2: int | None = None,
            imm: int | None = None) -> "ThreadBuilder":
        if (src2 is None) == (imm is None):
            raise WorkloadError("ALU needs exactly one of src2/imm")
        return self.emit(Instruction(Opcode.ALU, alu_op=op, dst=dst,
                                     src1=src1, src2=src2, imm=imm))

    def add(self, dst: int, a: int, b: int) -> "ThreadBuilder":
        return self.alu(AluOp.ADD, dst, a, src2=b)

    def addi(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.ADD, dst, a, imm=imm)

    def sub(self, dst: int, a: int, b: int) -> "ThreadBuilder":
        return self.alu(AluOp.SUB, dst, a, src2=b)

    def subi(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.SUB, dst, a, imm=imm)

    def mul(self, dst: int, a: int, b: int) -> "ThreadBuilder":
        return self.alu(AluOp.MUL, dst, a, src2=b)

    def muli(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.MUL, dst, a, imm=imm)

    def xor(self, dst: int, a: int, b: int) -> "ThreadBuilder":
        return self.alu(AluOp.XOR, dst, a, src2=b)

    def xori(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.XOR, dst, a, imm=imm)

    def andi(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.AND, dst, a, imm=imm)

    def shli(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.SHL, dst, a, imm=imm)

    def shri(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.SHR, dst, a, imm=imm)

    def cmplt(self, dst: int, a: int, b: int) -> "ThreadBuilder":
        return self.alu(AluOp.CMPLT, dst, a, src2=b)

    def cmplti(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.CMPLT, dst, a, imm=imm)

    def cmpeqi(self, dst: int, a: int, imm: int) -> "ThreadBuilder":
        return self.alu(AluOp.CMPEQ, dst, a, imm=imm)

    def nop(self, count: int = 1) -> "ThreadBuilder":
        """Append ``count`` NOPs: one frozen instruction at each position,
        so the thread's validation checks it once."""
        self._instructions.extend([Instruction(Opcode.NOP)] * count)
        return self

    # ------------------------------------------------------- control flow

    def beqz(self, reg: int, label: str) -> "ThreadBuilder":
        self._pending[len(self._instructions)] = label
        return self.emit(Instruction(Opcode.BEQZ, src1=reg, target=0))

    def bnez(self, reg: int, label: str) -> "ThreadBuilder":
        self._pending[len(self._instructions)] = label
        return self.emit(Instruction(Opcode.BNEZ, src1=reg, target=0))

    def jump(self, label: str) -> "ThreadBuilder":
        self._pending[len(self._instructions)] = label
        return self.emit(Instruction(Opcode.JUMP, target=0))

    def halt(self) -> "ThreadBuilder":
        return self.emit(Instruction(Opcode.HALT))

    # ------------------------------------------------------------- macros

    def spin_lock(self, lock_address: int, scratch: int) -> "ThreadBuilder":
        """Acquire a test-and-set spin lock at ``lock_address``.

        The TAS carries acquire semantics via RMW; the loop retries while the
        old value was non-zero (someone else held the lock).
        """
        top = self.label()
        self.rmw(RmwOp.TAS, scratch, offset=lock_address, note="lock")
        self.bnez(scratch, top)
        return self

    def spin_unlock(self, lock_address: int, scratch: int) -> "ThreadBuilder":
        """Release a spin lock: a release store of zero."""
        self.movi(scratch, 0)
        self.store(scratch, offset=lock_address, release=True, note="unlock")
        return self

    def spin_lock_indirect(self, base_reg: int, scratch: int) -> "ThreadBuilder":
        """Acquire a spin lock whose address is in ``base_reg``."""
        top = self.label()
        self.rmw(RmwOp.TAS, scratch, base=base_reg, note="lock_ind")
        self.bnez(scratch, top)
        return self

    def spin_unlock_indirect(self, base_reg: int, scratch: int) -> "ThreadBuilder":
        """Release a spin lock whose address is in ``base_reg``."""
        self.movi(scratch, 0)
        self.store(scratch, base=base_reg, release=True, note="unlock_ind")
        return self

    def atomic_add(self, address: int, operand: int, old_dst: int) -> "ThreadBuilder":
        """Atomically add register ``operand`` to ``[address]``."""
        return self.rmw(RmwOp.FETCH_ADD, old_dst, offset=address, src=operand,
                        note="atomic_add")

    def barrier(self, counter_address: int, num_threads: int, scratch_a: int,
                scratch_b: int) -> "ThreadBuilder":
        """Centralized barrier over a fresh counter word.

        Each participant atomically increments the counter and then spins on
        an acquire load until all ``num_threads`` increments are visible.
        Every barrier episode must use a distinct counter address.
        """
        self.movi(scratch_a, 1)
        self.atomic_add(counter_address, scratch_a, scratch_b)
        spin = self.label()
        self.load(scratch_b, offset=counter_address, acquire=True, note="barrier")
        self.cmpeqi(scratch_b, scratch_b, num_threads)
        self.beqz(scratch_b, spin)
        return self

    # -------------------------------------------------------------- build

    def build(self) -> ThreadProgram:
        """Resolve labels and return a validated :class:`ThreadProgram`."""
        instructions = list(self._instructions)
        for index, label in self._pending.items():
            if label not in self._labels:
                raise WorkloadError(
                    f"undefined label {label!r} in thread {self.name!r}")
            instructions[index] = dataclasses.replace(
                instructions[index], target=self._labels[label])
        if not instructions or instructions[-1].opcode is not Opcode.HALT:
            instructions.append(Instruction(Opcode.HALT))
        thread = ThreadProgram(instructions, name=self.name)
        thread.validate()
        return thread

    def __len__(self) -> int:
        return len(self._instructions)
