"""Functional semantics shared by the timing simulator and the replayer.

Both the out-of-order core model (at perform/execute time) and the
deterministic replayer (during in-order re-execution) evaluate instructions
with these definitions, so a divergence between recording and replay can
never be an artifact of two different interpreters.  :data:`ALU_FUNCTIONS`
holds each ALU operation once: :func:`eval_alu` (the core's path) calls it,
and the replayer's decoded table (:mod:`repro.replay.interpreter`) stores
the same function per static instruction.  Either caller wraps the result
to 64 bits.
"""

from __future__ import annotations

import operator

from .instructions import MASK64, AluOp, RmwOp

__all__ = ["ALU_FUNCTIONS", "eval_alu", "eval_rmw"]


def _shl(a: int, b: int) -> int:
    return a << (b & 63)


def _shr(a: int, b: int) -> int:
    return (a & MASK64) >> (b & 63)


def _cmplt(a: int, b: int) -> int:
    return 1 if (a & MASK64) < (b & MASK64) else 0


def _cmpeq(a: int, b: int) -> int:
    return 1 if (a & MASK64) == (b & MASK64) else 0


#: Each ALU operation as ``(a, b) -> int`` before the 64-bit wrap: the
#: result masked with ``MASK64`` is the operation's value.  Shift amounts
#: use their low six bits, and comparisons are unsigned.  Keyed by
#: ``AluOp`` value and looked up through ``_value_``, a plain attribute:
#: hashing an enum member is a Python-level call.
ALU_FUNCTIONS = {op.value: function for op, function in (
    (AluOp.ADD, operator.add),
    (AluOp.SUB, operator.sub),
    (AluOp.MUL, operator.mul),
    (AluOp.XOR, operator.xor),
    (AluOp.AND, operator.and_),
    (AluOp.OR, operator.or_),
    (AluOp.SHL, _shl),
    (AluOp.SHR, _shr),
    (AluOp.CMPLT, _cmplt),
    (AluOp.CMPEQ, _cmpeq),
)}


def eval_alu(op: AluOp, a: int, b: int) -> int:
    """Evaluate a 64-bit wrapping ALU operation."""
    return ALU_FUNCTIONS[op._value_](a, b) & MASK64


def eval_rmw(op: RmwOp, old: int, operand: int | None, imm: int | None) -> int:
    """Return the new memory value of an atomic read-modify-write.

    The caller supplies the old memory value and receives the value to
    store; the architectural result (``dst`` register) is always ``old``.
    """
    if op is RmwOp.TAS:
        return 1
    if op is RmwOp.FETCH_ADD:
        if operand is None:
            raise ValueError("FETCH_ADD requires an operand register value")
        return (old + operand) & MASK64
    if op is RmwOp.SWAP:
        if operand is None:
            raise ValueError("SWAP requires an operand register value")
        return operand & MASK64
    if op is RmwOp.CAS:
        if operand is None or imm is None:
            raise ValueError("CAS requires an operand register value and an immediate")
        return operand & MASK64 if (old & MASK64) == (imm & MASK64) else old & MASK64
    raise ValueError(f"unknown RMW op {op}")  # pragma: no cover
