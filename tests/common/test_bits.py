"""Tests for the bit-level log stream."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bits import BitWriter


class TestBitWriter:
    def test_bit_length_tracks_exactly(self):
        writer = BitWriter()
        writer.write(1, 3)
        writer.write(0, 13)
        assert writer.bit_length == 16
        assert len(writer.getvalue()) == 2

    def test_padding_to_byte(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        data = writer.getvalue()
        assert len(data) == 1
        assert data[0] == 0b1010_0000  # MSB-first, zero padded

    def test_value_too_wide(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write(4, 2)

    def test_negative_value(self):
        with pytest.raises(ValueError):
            BitWriter().write(-1, 8)

    def test_zero_width(self):
        with pytest.raises(ValueError):
            BitWriter().write(0, 0)

    def test_getvalue_is_stable(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        writer.write(1, 1)
        assert writer.getvalue() == writer.getvalue()

    def test_sequential_fields(self):
        writer = BitWriter()
        writer.write(5, 3)
        writer.write(1000, 16)
        writer.write(1, 1)
        assert writer.bit_length == 20
        assert writer.getvalue() == (
            (((5 << 16 | 1000) << 1 | 1) << 4).to_bytes(3, "big"))

    def test_cross_byte_field(self):
        writer = BitWriter()
        writer.write(0b1, 1)
        writer.write(0x7FFF, 15)
        assert writer.getvalue() == b"\xff\xff"


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=64),
                          st.integers(min_value=0)),
                min_size=1, max_size=60))
def test_roundtrip_property(fields):
    """Any sequence of (width, value % 2^width) fields is laid out
    MSB-first: the bytes read as one integer are the fields concatenated,
    zero-padded to a whole byte."""
    writer = BitWriter()
    expected = 0
    for width, raw in fields:
        value = raw % (1 << width)
        writer.write(value, width)
        expected = (expected << width) | value
    data = writer.getvalue()
    bits = writer.bit_length
    assert bits == sum(width for width, _ in fields)
    assert len(data) == (bits + 7) // 8
    assert int.from_bytes(data, "big") == expected << (len(data) * 8 - bits)
