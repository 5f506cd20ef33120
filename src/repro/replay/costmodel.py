"""Replay-time estimation (Section 5.4).

The paper replays sequentially: an OS module enforces the recorded total
order of intervals, programs an instruction-count interrupt per InorderBlock
(Cyrus-style minimal hardware support), emulates reordered instructions, and
lets the hardware execute in-order blocks natively.  Replay time therefore
decomposes into *user cycles* (native execution, plus pipeline-flush
penalties for end-of-block interrupts) and *OS cycles* (interval dispatch,
interrupt handling, reordered-instruction emulation).

This module converts the replayer's event counts into that accounting,
using the explicit constants of
:class:`~repro.common.config.ReplayCostConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.config import ReplayCostConfig

__all__ = ["ReplayCounts", "ReplayTime", "estimate_replay_time",
           "recorded_cpi"]


@dataclass
class ReplayCounts:
    """Raw event counts accumulated during a replay."""

    instructions: int = 0          # natively executed (InorderBlock contents)
    injected_loads: int = 0        # ReorderedLoad entries (incl. patched RMWs)
    dummies: int = 0               # Dummy entries (patched stores)
    patched_writes: int = 0        # relocated memory updates
    inorder_blocks: int = 0
    intervals: int = 0


@dataclass
class ReplayTime:
    """User/OS cycle split, as plotted in Figure 13."""

    user_cycles: float
    os_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.user_cycles + self.os_cycles

    def normalized_to(self, recording_cycles: int) -> dict[str, float]:
        """Figure 13's y-axis: replay time as a multiple of recording time."""
        if recording_cycles <= 0:
            return {"user": 0.0, "os": 0.0, "total": 0.0}
        return {
            "user": self.user_cycles / recording_cycles,
            "os": self.os_cycles / recording_cycles,
            "total": self.total_cycles / recording_cycles,
        }


def recorded_cpi(recording) -> float:
    """The recorded execution's per-core cycles per instruction.

    ``recording`` is a :class:`~repro.sim.machine.RunResult`, live or
    loaded; a run that retired nothing counts as CPI 1.
    """
    total = recording.total_instructions
    return (recording.cycles * len(recording.cores) / total
            if total else 1.0)


def estimate_replay_time(counts: ReplayCounts,
                         cost: ReplayCostConfig,
                         recorded_cpi: float = 1.0) -> ReplayTime:
    """Apply the cost model to replay event counts.

    ``recorded_cpi`` is the recorded execution's per-core cycles per
    instruction; it scales user time when ``cost.relative_user_cpi`` is set
    (native replay executes on the same hardware as recording).
    """
    cost.validate()
    cpi = cost.user_cpi * (recorded_cpi if cost.relative_user_cpi else 1.0)
    user = (counts.instructions * cpi
            + counts.inorder_blocks * cost.block_flush_user_cycles)
    os_cycles = (counts.intervals * cost.interval_dispatch_cycles
                 + counts.inorder_blocks * cost.inorder_block_interrupt_cycles
                 + counts.injected_loads * cost.reordered_load_cycles
                 + counts.patched_writes * cost.reordered_store_cycles
                 + counts.dummies * cost.dummy_entry_cycles)
    return ReplayTime(user_cycles=user, os_cycles=os_cycles)
