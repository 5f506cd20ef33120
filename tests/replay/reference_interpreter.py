"""Test-only reference interpreter for the replay machine.

:func:`reference_step` executes one instruction straight off its
:class:`~repro.isa.instructions.Instruction` object, the way the replayer
did before InorderBlocks ran as one loop over a decoded table.
:class:`ReferenceContext` runs every block through it, one instruction at
a time, so the block executor (:meth:`ThreadContext.run_block`) can be
checked against it.
"""

from repro.isa.instructions import MASK64, Opcode
from repro.isa.semantics import eval_alu, eval_rmw
from repro.replay.interpreter import ThreadContext


def _write(memory, address, value):
    """A replay write, attributed to the open interval as the replayer's
    memory attributes it."""
    memory[address] = value
    owner = getattr(memory, "current", None)
    if owner is not None:
        memory.writers[address] = owner


def reference_step(context: ThreadContext, memory) -> None:
    """Execute one instruction of ``context`` natively against ``memory``."""
    instr = context.current_instruction()
    opcode = instr.opcode
    regs = context.regs
    if opcode is Opcode.LOAD:
        address = context._address(instr)
        value = memory.get(address, 0)
        regs[instr.dst] = value
        context.load_values.append(value)
        if context.access_sink is not None:
            context.access_sink("load", address, value)
        context.pc += 1
    elif opcode is Opcode.STORE:
        address = context._address(instr)
        value = regs[instr.src1] & MASK64
        _write(memory, address, value)
        if context.access_sink is not None:
            context.access_sink("store", address, value)
        context.pc += 1
    elif opcode is Opcode.RMW:
        address = context._address(instr)
        old = memory.get(address, 0)
        operand = regs[instr.src1] if instr.src1 is not None else None
        new = eval_rmw(instr.rmw_op, old, operand, instr.imm)
        _write(memory, address, new)
        regs[instr.dst] = old
        context.load_values.append(old)
        if context.access_sink is not None:
            context.access_sink("rmw-load", address, old)
            context.access_sink("rmw-store", address, new)
        context.pc += 1
    elif opcode is Opcode.ALU:
        b = regs[instr.src2] if instr.src2 is not None else instr.imm
        regs[instr.dst] = eval_alu(instr.alu_op, regs[instr.src1], b)
        context.pc += 1
    elif opcode is Opcode.MOVI:
        regs[instr.dst] = instr.imm & MASK64
        context.pc += 1
    elif opcode is Opcode.BEQZ:
        context.pc = (instr.target if regs[instr.src1] == 0
                      else context.pc + 1)
    elif opcode is Opcode.BNEZ:
        context.pc = (instr.target if regs[instr.src1] != 0
                      else context.pc + 1)
    elif opcode is Opcode.JUMP:
        context.pc = instr.target
    elif opcode is Opcode.HALT:
        context.halted = True
        context.pc += 1
    else:  # FENCE / NOP are architectural no-ops during replay
        context.pc += 1
    context.instructions_executed += 1


class ReferenceContext(ThreadContext):
    """A thread context whose blocks run on :func:`reference_step`."""

    def run_block(self, memory, count: int) -> None:
        for _ in range(count):
            reference_step(self, memory)
