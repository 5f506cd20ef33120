"""Deterministic replay: patching, interpretation, verification, cost model."""

from .costmodel import ReplayCounts, ReplayTime, estimate_replay_time
from .interpreter import ThreadContext
from .parallel import ParallelReplayResult, parallel_replay_recording
from .patcher import PatchedWrite, ReplayInterval, group_intervals, patch_intervals
from .replayer import Replayer, ReplayResult, replay_recording

__all__ = [
    "ReplayCounts",
    "ReplayTime",
    "estimate_replay_time",
    "ThreadContext",
    "ParallelReplayResult",
    "parallel_replay_recording",
    "PatchedWrite",
    "ReplayInterval",
    "group_intervals",
    "patch_intervals",
    "Replayer",
    "ReplayResult",
    "replay_recording",
]
