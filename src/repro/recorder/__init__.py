"""RelaxReplay memory race recorder: TRAQ, Snoop Table, interval logs."""

from .logfmt import (
    Dummy,
    EntryType,
    InorderBlock,
    IntervalFrame,
    LogEntry,
    ReorderedLoad,
    ReorderedRmw,
    ReorderedStore,
    decode_log,
    encode_log,
    entry_bit_size,
)
from .mrr import RecorderBank, RecorderStats, RelaxReplayRecorder
from .ordering import DependenceTracker, IntervalEdge
from .snoop_table import SnoopTable
from .traq import TraqEntry, TrackingQueue

__all__ = [
    "Dummy",
    "EntryType",
    "InorderBlock",
    "IntervalFrame",
    "LogEntry",
    "ReorderedLoad",
    "ReorderedRmw",
    "ReorderedStore",
    "decode_log",
    "encode_log",
    "entry_bit_size",
    "RecorderBank",
    "RecorderStats",
    "DependenceTracker",
    "IntervalEdge",
    "RelaxReplayRecorder",
    "SnoopTable",
    "TraqEntry",
    "TrackingQueue",
]
