"""Interval-log format (Figure 6(c)) with bit-exact encoding.

A per-core log is a sequence of entries; each interval's entries are
followed by its ``IntervalFrame``, which carries the (wrapping) CISN and the
QuickRec-style global timestamp used for interval ordering.  Entry types:

``InorderBlock``
    A run of consecutive instructions (memory *and* non-memory, thanks to
    the NMI mechanism) to be replayed natively in program order.
``ReorderedLoad``
    The next instruction in program order is a load whose perform event
    could not be moved to its counting event; its recorded value is
    injected at replay.
``ReorderedStore``
    Likewise for a store: the address/value written plus the ``offset`` (in
    intervals) back to the interval where it performed.  A patching pass
    moves the memory update there and leaves a ``Dummy`` at the counting
    position.
``ReorderedRmw``
    Extension for atomic read-modify-writes (the paper's mechanism applied
    to RMWs): records the old value (register result), the new memory
    value, the address, and the perform-interval offset.
``Dummy``
    Post-patching placeholder: skip one instruction (PC advance only).
    Never produced by the recorder itself.

Sizes are reported in *bits* because Figure 11 measures bits per
kilo-instruction of uncompressed log.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from ..common.bits import BitWriter
from ..common.config import RecorderConfig
from ..common.errors import LogFormatError

__all__ = [
    "EntryType",
    "InorderBlock",
    "ReorderedLoad",
    "ReorderedStore",
    "ReorderedRmw",
    "Dummy",
    "IntervalFrame",
    "LogEntry",
    "entry_bit_size",
    "encode_log",
    "decode_log",
]

_TYPE_BITS = 3
_BLOCK_BITS = 32
_VALUE_BITS = 64
_ADDR_BITS = 64
_OFFSET_BITS = 16
_TIMESTAMP_BITS = 64


class EntryType(enum.IntEnum):
    """On-disk type tags of the interval-log entries (3 bits)."""

    INORDER_BLOCK = 0
    REORDERED_LOAD = 1
    REORDERED_STORE = 2
    REORDERED_RMW = 3
    DUMMY = 4
    INTERVAL_FRAME = 5


@dataclass(frozen=True)
class InorderBlock:
    size: int  # total instructions (not just memory accesses)


@dataclass(frozen=True)
class ReorderedLoad:
    value: int


@dataclass(frozen=True)
class ReorderedStore:
    addr: int
    value: int
    offset: int  # intervals between perform and counting


@dataclass(frozen=True)
class ReorderedRmw:
    old_value: int   # architectural result (dst register)
    new_value: int   # value left in memory
    addr: int
    offset: int


@dataclass(frozen=True)
class Dummy:
    """Skip one instruction (its memory effect was patched elsewhere)."""


@dataclass(frozen=True)
class IntervalFrame:
    cisn: int        # wrapping interval sequence number
    timestamp: int   # global-clock cycle of interval termination (QuickRec)


LogEntry = (InorderBlock | ReorderedLoad | ReorderedStore | ReorderedRmw
            | Dummy | IntervalFrame)


def entry_bit_size(entry: LogEntry, config: RecorderConfig) -> int:
    """Uncompressed size of one entry in bits."""
    if isinstance(entry, InorderBlock):
        return _TYPE_BITS + _BLOCK_BITS
    if isinstance(entry, ReorderedLoad):
        return _TYPE_BITS + _VALUE_BITS
    if isinstance(entry, ReorderedStore):
        return _TYPE_BITS + _ADDR_BITS + _VALUE_BITS + _OFFSET_BITS
    if isinstance(entry, ReorderedRmw):
        return _TYPE_BITS + _ADDR_BITS + 2 * _VALUE_BITS + _OFFSET_BITS
    if isinstance(entry, Dummy):
        return _TYPE_BITS
    if isinstance(entry, IntervalFrame):
        return _TYPE_BITS + config.cisn_bits + _TIMESTAMP_BITS
    raise LogFormatError(f"unknown log entry {entry!r}")


def encode_log(entries, config: RecorderConfig) -> tuple[bytes, int]:
    """Serialize entries to a bit stream; returns ``(data, bit_length)``."""
    writer = BitWriter()
    cisn_mask = (1 << config.cisn_bits) - 1
    for entry in entries:
        if isinstance(entry, InorderBlock):
            writer.write(EntryType.INORDER_BLOCK, _TYPE_BITS)
            writer.write(entry.size, _BLOCK_BITS)
        elif isinstance(entry, ReorderedLoad):
            writer.write(EntryType.REORDERED_LOAD, _TYPE_BITS)
            writer.write(entry.value, _VALUE_BITS)
        elif isinstance(entry, ReorderedStore):
            writer.write(EntryType.REORDERED_STORE, _TYPE_BITS)
            writer.write(entry.addr, _ADDR_BITS)
            writer.write(entry.value, _VALUE_BITS)
            writer.write(entry.offset, _OFFSET_BITS)
        elif isinstance(entry, ReorderedRmw):
            writer.write(EntryType.REORDERED_RMW, _TYPE_BITS)
            writer.write(entry.old_value, _VALUE_BITS)
            writer.write(entry.new_value, _VALUE_BITS)
            writer.write(entry.addr, _ADDR_BITS)
            writer.write(entry.offset, _OFFSET_BITS)
        elif isinstance(entry, Dummy):
            writer.write(EntryType.DUMMY, _TYPE_BITS)
        elif isinstance(entry, IntervalFrame):
            writer.write(EntryType.INTERVAL_FRAME, _TYPE_BITS)
            writer.write(entry.cisn & cisn_mask, config.cisn_bits)
            writer.write(entry.timestamp, _TIMESTAMP_BITS)
        else:
            raise LogFormatError(f"cannot encode {entry!r}")
    return writer.getvalue(), writer.bit_length


@functools.lru_cache(maxsize=None)
def _payload_layouts(cisn_bits: int) -> tuple:
    """Indexed by type tag: ``(entry class, payload bits, payload mask,
    build)``, where ``build`` makes the entry from its payload read as one
    MSB-first integer; ``None`` for the unassigned tags."""
    def layout(kind, width, build):
        return kind, width, (1 << width) - 1, build

    offset_mask = (1 << _OFFSET_BITS) - 1
    value_mask = (1 << _VALUE_BITS) - 1
    store_addr = _VALUE_BITS + _OFFSET_BITS      # shift of the top field
    rmw_new = _ADDR_BITS + _OFFSET_BITS
    rmw_old = _VALUE_BITS + rmw_new
    layouts = {
        EntryType.INORDER_BLOCK: layout(InorderBlock, _BLOCK_BITS,
                                        InorderBlock),
        EntryType.REORDERED_LOAD: layout(ReorderedLoad, _VALUE_BITS,
                                         ReorderedLoad),
        EntryType.REORDERED_STORE: layout(
            ReorderedStore, _ADDR_BITS + store_addr,
            lambda v: ReorderedStore(v >> store_addr,
                                     (v >> _OFFSET_BITS) & value_mask,
                                     v & offset_mask)),
        EntryType.REORDERED_RMW: layout(
            ReorderedRmw, _VALUE_BITS + rmw_old,
            lambda v: ReorderedRmw(v >> rmw_old, (v >> rmw_new) & value_mask,
                                   (v >> _OFFSET_BITS) & value_mask,
                                   v & offset_mask)),
        EntryType.DUMMY: layout(Dummy, 0, lambda v: Dummy()),
        EntryType.INTERVAL_FRAME: layout(
            IntervalFrame, cisn_bits + _TIMESTAMP_BITS,
            lambda v: IntervalFrame(v >> _TIMESTAMP_BITS,
                                    v & ((1 << _TIMESTAMP_BITS) - 1))),
    }
    return tuple(map(layouts.get, range(1 << _TYPE_BITS)))


def decode_log(data: bytes, bit_length: int, config: RecorderConfig) -> list[LogEntry]:
    """Parse a bit stream produced by :func:`encode_log`.

    Each entry is read as two windows: the 3-bit type tag, then its whole
    payload, each as ``int.from_bytes`` of the bytes covering it, shifted
    and masked.  Raises :class:`LogFormatError` naming the bit offset for
    an unassigned type tag, a stream that ends inside an entry, and a
    ``bit_length`` that is negative or longer than ``data``.
    """
    available = len(data) * 8
    if bit_length < 0 or bit_length > available:
        raise LogFormatError(f"log bit_length {bit_length} is outside the "
                             f"{available} bits of data")
    layouts = _payload_layouts(config.cisn_bits)
    # A zero byte past the end keeps the last byte's two-byte tag window
    # in range; no field reaches past ``bit_length``, so none reads it.
    padded = bytes(data) + b"\0"
    from_bytes = int.from_bytes
    entries: list[LogEntry] = []
    append = entries.append
    pos = 0
    while pos < bit_length:
        start = pos + _TYPE_BITS
        if start > bit_length:
            raise LogFormatError(
                f"log truncated at bit {pos}: a {_TYPE_BITS}-bit entry type "
                f"does not fit in the stream's {bit_length} bits")
        byte = pos >> 3     # the 3-bit tag lies in this byte and the next
        tag = (((padded[byte] << 8) | padded[byte + 1])
               >> (13 - (pos & 7))) & 7
        layout = layouts[tag]
        if layout is None:
            raise LogFormatError(f"bad entry type {tag} at bit {pos}")
        kind, width, mask, build = layout
        pos = start + width
        if pos > bit_length:
            raise LogFormatError(
                f"log truncated at bit {start}: a {kind.__name__} entry needs "
                f"{width} payload bits, the stream has {bit_length - start}")
        end_byte = (pos + 7) >> 3
        append(build((from_bytes(padded[start >> 3:end_byte], "big")
                      >> ((end_byte << 3) - pos)) & mask))
    return entries
