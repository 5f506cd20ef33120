"""Tests for the shared functional semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.builder import ThreadBuilder
from repro.isa.instructions import MASK64, AluOp, RmwOp
from repro.isa.semantics import eval_alu, eval_rmw
from repro.replay.interpreter import ThreadContext

u64 = st.integers(min_value=0, max_value=MASK64)


class TestAlu:
    @pytest.mark.parametrize("op,a,b,expected", [
        (AluOp.ADD, 2, 3, 5),
        (AluOp.SUB, 3, 5, MASK64 - 1),      # wraps
        (AluOp.MUL, 1 << 32, 1 << 32, 0),   # wraps to 2^64 mod 2^64
        (AluOp.XOR, 0b1100, 0b1010, 0b0110),
        (AluOp.AND, 0b1100, 0b1010, 0b1000),
        (AluOp.OR, 0b1100, 0b1010, 0b1110),
        (AluOp.SHL, 1, 4, 16),
        (AluOp.SHR, 16, 4, 1),
        (AluOp.CMPLT, 3, 4, 1),
        (AluOp.CMPLT, 4, 3, 0),
        (AluOp.CMPEQ, 9, 9, 1),
        (AluOp.CMPEQ, 9, 8, 0),
    ])
    def test_cases(self, op, a, b, expected):
        assert eval_alu(op, a, b) == expected

    def test_shift_amount_masked(self):
        assert eval_alu(AluOp.SHL, 1, 64) == 1      # 64 & 63 == 0
        assert eval_alu(AluOp.SHR, 8, 65) == 4

    def test_cmplt_is_unsigned(self):
        assert eval_alu(AluOp.CMPLT, MASK64, 0) == 0
        assert eval_alu(AluOp.CMPLT, 0, MASK64) == 1

    @given(u64, u64, st.sampled_from(list(AluOp)))
    def test_result_fits_64_bits(self, a, b, op):
        assert 0 <= eval_alu(op, a, b) <= MASK64


class TestOneAluDefinition:
    """The replayer's decoded table evaluates every ALU operation exactly
    as the core's ``eval_alu`` does."""

    @pytest.mark.parametrize("a,b", [
        (7, 3),
        (MASK64, 2),          # wraparound (add, mul, shl)
        (0, 1),               # sub below zero
        (1, 64),              # shift of 64 uses its low six bits
        (MASK64, 127),        # shift of 127 uses 63
        (MASK64, 0),          # unsigned compare: max is not below 0
        (0, MASK64),
        (1 << 63, 1 << 63),
    ])
    @pytest.mark.parametrize("op", list(AluOp), ids=lambda op: op.value)
    def test_one_block_replay_matches_eval_alu(self, op, a, b):
        builder = ThreadBuilder()
        builder.movi(1, a)
        builder.movi(2, b)
        builder.alu(op, 3, 1, src2=2)    # register form
        builder.alu(op, 4, 1, imm=b)     # immediate form
        builder.alu(op, 5, 1, imm=-b)    # negative immediate
        context = ThreadContext(0, builder.build())
        context.run_block({}, 5)
        assert context.regs[3:6] == [eval_alu(op, a, b), eval_alu(op, a, b),
                                     eval_alu(op, a, -b)]
        assert (context.pc, context.instructions_executed) == (5, 5)


class TestRmw:
    def test_tas(self):
        assert eval_rmw(RmwOp.TAS, 0, None, None) == 1
        assert eval_rmw(RmwOp.TAS, 7, None, None) == 1

    def test_fetch_add(self):
        assert eval_rmw(RmwOp.FETCH_ADD, 10, 5, None) == 15
        assert eval_rmw(RmwOp.FETCH_ADD, MASK64, 1, None) == 0  # wraps

    def test_swap(self):
        assert eval_rmw(RmwOp.SWAP, 10, 99, None) == 99

    def test_cas(self):
        assert eval_rmw(RmwOp.CAS, 5, 42, 5) == 42    # matches -> swap
        assert eval_rmw(RmwOp.CAS, 6, 42, 5) == 6     # no match -> unchanged

    @pytest.mark.parametrize("op,operand,imm", [
        (RmwOp.FETCH_ADD, None, None),
        (RmwOp.SWAP, None, None),
        (RmwOp.CAS, None, 1),
        (RmwOp.CAS, 1, None),
    ])
    def test_missing_operands(self, op, operand, imm):
        with pytest.raises(ValueError):
            eval_rmw(op, 0, operand, imm)

    @given(u64, u64, u64, st.sampled_from(list(RmwOp)))
    def test_result_fits_64_bits(self, old, operand, imm, op):
        assert 0 <= eval_rmw(op, old, operand, imm) <= MASK64
