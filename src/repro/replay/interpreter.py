"""In-order functional interpreter used during deterministic replay.

This is the "native hardware" of the replay machine.  An InorderBlock is a
known count of instructions that need no log input, so it runs as one unit:
:meth:`ThreadContext.run_block` executes them in one loop, with the pc,
registers, loaded-value list, access sink and the thread's decoded table in
locals, and the replayer steps in only at reordered entries (Section 3.5).
:meth:`ThreadContext.step` is ``run_block(memory, 1)``; there is no other
interpreter.  It is also usable standalone as a golden sequential model for
single-threaded programs.

The decoded table (:func:`decoded_table`) holds one small tuple per static
instruction: its dispatch class, register indices, offset or immediate,
branch target and ALU function (:data:`repro.isa.semantics.ALU_FUNCTIONS`,
the same function the recording core evaluates).  It is built on first use
and memoized on the :class:`ThreadProgram`, as ``validate`` is, so every
replay of one program decodes it once; equal instructions share one tuple.
"""

from __future__ import annotations

from ..common.errors import ReplayDivergenceError
from ..isa.instructions import MASK64, NUM_REGS, Instruction, Opcode
from ..isa.program import ThreadProgram
from ..isa.semantics import ALU_FUNCTIONS, eval_rmw

__all__ = ["ThreadContext", "decoded_table"]

# Dispatch classes of the decoded table, in the order run_block tests them
# (the most frequent first).  Each entry is ``(class, a, b, c, d)``:
#
#   _ALU_IMM      function, dst, src1, imm
#   _ALU_REG      function, dst, src1, src2
#   _LOAD_ABS     dst, address
#   _STORE_ABS    src1, address
#   _LOAD_BASE    dst, base, offset
#   _STORE_BASE   src1, base, offset
#   _BRANCH_ZERO  src1, target        (BEQZ)
#   _BRANCH_SET   src1, target        (BNEZ)
#   _MOVI         dst, imm & MASK64
#   _JUMP         target
#   _RMW          dst, base (or None), offset, the instruction
#   _HALT, _NOP   (FENCE and NOP are architectural no-ops during replay)
#
# Unused slots are None.
(_ALU_IMM, _ALU_REG, _LOAD_ABS, _STORE_ABS, _LOAD_BASE, _STORE_BASE,
 _BRANCH_ZERO, _BRANCH_SET, _MOVI, _JUMP, _RMW, _HALT, _NOP) = range(13)


def _alu(instr: Instruction) -> tuple:
    function = ALU_FUNCTIONS[instr.alu_op._value_]
    if instr.src2 is None:
        return (_ALU_IMM, function, instr.dst, instr.src1, instr.imm)
    return (_ALU_REG, function, instr.dst, instr.src1, instr.src2)


def _load(instr: Instruction) -> tuple:
    if instr.addr_base is None:
        return (_LOAD_ABS, instr.dst, instr.addr_offset, None, None)
    return (_LOAD_BASE, instr.dst, instr.addr_base, instr.addr_offset, None)


def _store(instr: Instruction) -> tuple:
    if instr.addr_base is None:
        return (_STORE_ABS, instr.src1, instr.addr_offset, None, None)
    return (_STORE_BASE, instr.src1, instr.addr_base, instr.addr_offset, None)


#: Each opcode's decoder, keyed by ``Opcode`` value and looked up through
#: ``_value_``, a plain attribute (see ``repro.isa.instructions._ROLES``).
_DECODERS = {opcode.value: decoder for opcode, decoder in (
    (Opcode.ALU, _alu),
    (Opcode.LOAD, _load),
    (Opcode.STORE, _store),
    (Opcode.BEQZ, lambda instr: (_BRANCH_ZERO, instr.src1, instr.target,
                                 None, None)),
    (Opcode.BNEZ, lambda instr: (_BRANCH_SET, instr.src1, instr.target,
                                 None, None)),
    (Opcode.MOVI, lambda instr: (_MOVI, instr.dst, instr.imm & MASK64,
                                 None, None)),
    (Opcode.JUMP, lambda instr: (_JUMP, instr.target, None, None, None)),
    (Opcode.RMW, lambda instr: (_RMW, instr.dst, instr.addr_base,
                                instr.addr_offset, instr)),
    (Opcode.HALT, lambda instr: (_HALT, None, None, None, None)),
    (Opcode.FENCE, lambda instr: (_NOP, None, None, None, None)),
    (Opcode.NOP, lambda instr: (_NOP, None, None, None, None)),
)}


def decoded_table(program: ThreadProgram) -> list[tuple]:
    """``program``'s decoded table: entry ``pc`` decodes instruction
    ``pc``.  Built once and memoized on the program (programs are
    immutable once built)."""
    table = getattr(program, "_decoded", None)
    if table is None:
        # Equal instructions are mostly one shared object (a loaded program
        # shares them), so each object decodes once; interning the tuples
        # by value shares them between equal objects too.
        instructions = program.instructions
        interned: dict[tuple, tuple] = {}
        by_object: dict[int, tuple] = {}
        for key, instr in {id(instr): instr for instr in instructions}.items():
            entry = _DECODERS[instr.opcode._value_](instr)
            by_object[key] = interned.setdefault(entry, entry)
        table = program._decoded = [by_object[id(instr)]
                                    for instr in instructions]
    return table


class ThreadContext:
    """Architectural state of one replayed thread."""

    def __init__(self, core_id: int, program: ThreadProgram):
        self.core_id = core_id
        self.program = program
        self.pc = 0
        self.regs = [0] * NUM_REGS
        self.halted = False
        self.instructions_executed = 0
        # Loaded values in program order (for trace-level verification).
        self.load_values: list[int] = []
        # Optional callable ``(kind, addr, value)`` observing every memory
        # access replayed through this context; None (the default) keeps
        # the hot path a single local test.  Used by the time-travel
        # inspector (:mod:`repro.obs.inspect`) to index reads and writes.
        self.access_sink = None
        self._table = decoded_table(program)

    # ------------------------------------------------------------ helpers

    def current_instruction(self) -> Instruction:
        if self.pc >= len(self.program):
            raise ReplayDivergenceError(
                f"core {self.core_id}: replay ran past the end of the program "
                f"(pc={self.pc})")
        return self.program[self.pc]

    def _address(self, instr: Instruction) -> int:
        base = self.regs[instr.addr_base] if instr.addr_base is not None else 0
        return base + instr.addr_offset

    # ---------------------------------------------------------- execution

    def step(self, memory: dict[int, int]) -> None:
        """Execute one instruction natively against ``memory``."""
        self.run_block(memory, 1)

    def run_block(self, memory: dict[int, int], count: int) -> None:
        """Execute the next ``count`` instructions natively against
        ``memory``, in one loop.

        When ``memory`` is the replayer's writer-tracking image with an
        open interval (its ``current`` is a ``(core, cisn)`` pair), every
        store and RMW also records that pair in ``memory.writers``.
        Running past the end of the program raises
        :class:`ReplayDivergenceError` with ``pc`` and
        ``instructions_executed`` left at the failing instruction.
        """
        table = self._table
        regs = self.regs
        load = memory.get
        record_load = self.load_values.append
        sink = self.access_sink
        owner = getattr(memory, "current", None)
        writers = None if owner is None else memory.writers
        mask = MASK64
        pc = self.pc
        done = 0
        try:
            for done in range(count):
                kind, a, b, c, d = table[pc]
                if kind == _ALU_IMM:
                    regs[b] = a(regs[c], d) & mask
                    pc += 1
                elif kind == _ALU_REG:
                    regs[b] = a(regs[c], regs[d]) & mask
                    pc += 1
                elif kind == _LOAD_ABS:
                    value = regs[a] = load(b, 0)
                    record_load(value)
                    if sink is not None:
                        sink("load", b, value)
                    pc += 1
                elif kind == _STORE_ABS:
                    value = memory[b] = regs[a] & mask
                    if writers is not None:
                        writers[b] = owner
                    if sink is not None:
                        sink("store", b, value)
                    pc += 1
                elif kind == _LOAD_BASE:
                    address = regs[b] + c
                    value = regs[a] = load(address, 0)
                    record_load(value)
                    if sink is not None:
                        sink("load", address, value)
                    pc += 1
                elif kind == _STORE_BASE:
                    address = regs[b] + c
                    value = memory[address] = regs[a] & mask
                    if writers is not None:
                        writers[address] = owner
                    if sink is not None:
                        sink("store", address, value)
                    pc += 1
                elif kind == _BRANCH_ZERO:
                    pc = pc + 1 if regs[a] else b
                elif kind == _BRANCH_SET:
                    pc = b if regs[a] else pc + 1
                elif kind == _MOVI:
                    regs[a] = b
                    pc += 1
                elif kind == _JUMP:
                    pc = a
                elif kind == _RMW:
                    address = c if b is None else regs[b] + c
                    old = load(address, 0)
                    operand = regs[d.src1] if d.src1 is not None else None
                    new = memory[address] = eval_rmw(d.rmw_op, old, operand,
                                                     d.imm)
                    if writers is not None:
                        writers[address] = owner
                    regs[a] = old
                    record_load(old)
                    if sink is not None:
                        sink("rmw-load", address, old)
                        sink("rmw-store", address, new)
                    pc += 1
                elif kind == _HALT:
                    self.halted = True
                    pc += 1
                else:
                    pc += 1
            else:
                done = count
        except IndexError:
            if pc < len(table):
                raise
            raise ReplayDivergenceError(
                f"core {self.core_id}: replay ran past the end of the program "
                f"(pc={pc})") from None
        finally:
            self.pc = pc
            self.instructions_executed += done

    # -------------------------------------------- reordered-entry support

    def inject_load_value(self, value: int) -> None:
        """Apply a ReorderedLoad (or patched RMW count) entry: write the
        logged value to the destination register and advance the PC without
        touching memory (Section 3.5)."""
        instr = self.current_instruction()
        if not instr.is_load_like:
            raise ReplayDivergenceError(
                f"core {self.core_id}: ReorderedLoad entry at pc={self.pc} but "
                f"instruction is {instr.opcode.value}")
        if self.access_sink is not None:
            # Address operands are program-order-prior state (read before
            # the destination register is written), so the deterministic
            # replay recomputes the recorded address exactly.
            self.access_sink("injected-load", self._address(instr),
                             value & MASK64)
        self.regs[instr.dst] = value & MASK64
        self.load_values.append(value & MASK64)
        self.pc += 1
        self.instructions_executed += 1

    def skip_store(self) -> None:
        """Apply a Dummy entry: the store's memory effect was patched into an
        earlier interval; just advance the PC (Section 3.5)."""
        instr = self.current_instruction()
        if not instr.is_store_like:
            raise ReplayDivergenceError(
                f"core {self.core_id}: Dummy entry at pc={self.pc} but "
                f"instruction is {instr.opcode.value}")
        self.pc += 1
        self.instructions_executed += 1
