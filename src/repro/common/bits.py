"""Bit-level serialization used by the interval-log format.

The paper reports log sizes in *bits* per kilo-instruction (Figure 11), so
the log encoder packs entries at bit granularity rather than rounding every
field up to a byte.  :class:`BitWriter` implements a simple MSB-first bit
stream with fixed-width unsigned fields, which is all the log format
(Figure 6(c)) needs; :func:`repro.recorder.logfmt.decode_log` reads it back.
"""

from __future__ import annotations

__all__ = ["BitWriter"]


class BitWriter:
    """Append-only MSB-first bit stream."""

    __slots__ = ("_chunks", "_acc", "_acc_bits", "_total_bits")

    def __init__(self) -> None:
        self._chunks = bytearray()
        self._acc = 0
        self._acc_bits = 0
        self._total_bits = 0

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as an unsigned ``width``-bit field."""
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        self._acc = (self._acc << width) | value
        self._acc_bits += width
        self._total_bits += width
        while self._acc_bits >= 8:
            self._acc_bits -= 8
            self._chunks.append((self._acc >> self._acc_bits) & 0xFF)
        self._acc &= (1 << self._acc_bits) - 1

    @property
    def bit_length(self) -> int:
        """Exact number of bits written so far."""
        return self._total_bits

    def getvalue(self) -> bytes:
        """Return the stream as bytes; the final partial byte is zero-padded."""
        out = bytes(self._chunks)
        if self._acc_bits:
            out += bytes([(self._acc << (8 - self._acc_bits)) & 0xFF])
        return out
