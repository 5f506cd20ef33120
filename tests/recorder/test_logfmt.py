"""Log-format tests: entry sizes and bit-exact encode/decode."""

import pytest
from hypothesis import given, strategies as st

from repro.common.bits import BitWriter
from repro.common.config import RecorderConfig
from repro.common.errors import LogFormatError
from repro.recorder.logfmt import (
    Dummy,
    EntryType,
    InorderBlock,
    IntervalFrame,
    ReorderedLoad,
    ReorderedRmw,
    ReorderedStore,
    decode_log,
    encode_log,
    entry_bit_size,
)

CONFIG = RecorderConfig()

entry_strategy = st.one_of(
    st.builds(InorderBlock, st.integers(0, (1 << 32) - 1)),
    st.builds(ReorderedLoad, st.integers(0, (1 << 64) - 1)),
    st.builds(ReorderedStore, st.integers(0, (1 << 64) - 1),
              st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 16) - 1)),
    st.builds(ReorderedRmw, st.integers(0, (1 << 64) - 1),
              st.integers(0, (1 << 64) - 1), st.integers(0, (1 << 64) - 1),
              st.integers(0, (1 << 16) - 1)),
    st.just(Dummy()),
    st.builds(IntervalFrame, st.integers(0, (1 << 16) - 1),
              st.integers(0, (1 << 64) - 1)),
)


class TestEntrySizes:
    @pytest.mark.parametrize("entry,bits", [
        (InorderBlock(5), 3 + 32),
        (ReorderedLoad(1), 3 + 64),
        (ReorderedStore(8, 9, 1), 3 + 64 + 64 + 16),
        (ReorderedRmw(1, 2, 8, 1), 3 + 64 + 64 + 64 + 16),
        (Dummy(), 3),
        (IntervalFrame(0, 0), 3 + 16 + 64),
    ])
    def test_sizes(self, entry, bits):
        assert entry_bit_size(entry, CONFIG) == bits

    def test_unknown_entry(self):
        with pytest.raises(LogFormatError):
            entry_bit_size(object(), CONFIG)


class TestEncodeDecode:
    def test_empty(self):
        data, bits = encode_log([], CONFIG)
        assert bits == 0
        assert decode_log(data, bits, CONFIG) == []

    def test_bit_length_matches_entry_sizes(self):
        entries = [InorderBlock(7), ReorderedLoad(3), IntervalFrame(0, 99)]
        _, bits = encode_log(entries, CONFIG)
        assert bits == sum(entry_bit_size(entry, CONFIG) for entry in entries)

    def test_cisn_wraps_in_encoding(self):
        entries = [IntervalFrame(0x12345, 7)]
        data, bits = encode_log(entries, CONFIG)
        decoded = decode_log(data, bits, CONFIG)
        assert decoded[0].cisn == 0x12345 & 0xFFFF

    def test_garbage_type_rejected(self):
        # Type tag 6/7 are unassigned.
        data = bytes([0b110_00000])
        with pytest.raises(LogFormatError, match="type 6 at bit 0"):
            decode_log(data, 3, CONFIG)

    @given(st.lists(entry_strategy, max_size=80))
    def test_roundtrip_property(self, entries):
        data, bits = encode_log(entries, CONFIG)
        decoded = decode_log(data, bits, CONFIG)
        expected = [
            IntervalFrame(entry.cisn & 0xFFFF, entry.timestamp)
            if isinstance(entry, IntervalFrame) else entry
            for entry in entries
        ]
        assert decoded == expected


class TestMalformedLogs:
    """A bad stream fails with a LogFormatError naming the bit offset."""

    def test_truncated_stream(self):
        data, bits = encode_log([InorderBlock(9), ReorderedLoad(7)], CONFIG)
        # Cut inside the ReorderedLoad's 64-bit payload, which starts at
        # bit 35 + 3.
        with pytest.raises(LogFormatError, match="truncated at bit 38"):
            decode_log(data, bits - 1, CONFIG)

    def test_truncated_entry_type(self):
        data, bits = encode_log([InorderBlock(9), Dummy()], CONFIG)
        with pytest.raises(LogFormatError, match="truncated at bit 35"):
            decode_log(data, bits - 1, CONFIG)

    def test_bit_length_beyond_data(self):
        with pytest.raises(LogFormatError, match="bit_length 9"):
            decode_log(b"\x00", 9, CONFIG)

    def test_negative_bit_length(self):
        with pytest.raises(LogFormatError, match="bit_length -1"):
            decode_log(b"\x00", -1, CONFIG)

    def test_bad_type_names_its_offset(self):
        writer = BitWriter()
        writer.write(EntryType.INORDER_BLOCK, 3)
        writer.write(1, 32)
        writer.write(7, 3)
        with pytest.raises(LogFormatError, match="type 7 at bit 35"):
            decode_log(writer.getvalue(), writer.bit_length, CONFIG)

    @given(st.binary(max_size=48), st.integers(-64, 48 * 8 + 64))
    def test_arbitrary_bytes_decode_or_raise_log_format_error(self, data,
                                                              bit_length):
        try:
            entries = decode_log(data, bit_length, CONFIG)
        except LogFormatError:
            return
        assert isinstance(entries, list)
