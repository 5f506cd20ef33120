"""Program containers: per-thread instruction sequences plus initial memory."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import WorkloadError
from .instructions import Instruction, WORD_BYTES

__all__ = ["ThreadProgram", "Program"]


@dataclass
class ThreadProgram:
    """The static instruction sequence executed by one thread/core."""

    instructions: list[Instruction]
    name: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def validate(self) -> None:
        # Memoized like Program.validate: a builder validates the thread it
        # returns and the Program the thread joins validates it again.
        if getattr(self, "_validated", False):
            return
        if not self.instructions:
            raise WorkloadError(f"thread program {self.name!r} is empty")
        length = len(self.instructions)
        for instruction in self.instructions:
            instruction.validate(length)
        self._validated = True


@dataclass
class Program:
    """A complete multithreaded workload.

    Attributes
    ----------
    threads:
        One :class:`ThreadProgram` per core; thread ``i`` runs on core ``i``.
    initial_memory:
        Word-aligned initial values; addresses absent from the mapping start
        as zero.
    name:
        Workload identifier used in reports (e.g. ``"fft"``).
    metadata:
        Free-form generator parameters kept for reproducibility.
    """

    threads: list[ThreadProgram]
    initial_memory: dict[int, int] = field(default_factory=dict)
    name: str = "program"
    metadata: dict = field(default_factory=dict)

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def total_instructions(self) -> int:
        """Static instruction count across all threads."""
        return sum(len(thread) for thread in self.threads)

    def validate(self) -> "Program":
        # Validation is O(static instructions) and programs are immutable
        # once built; workload builders validate at build time and every
        # Machine.run validates again, so memoize the successful pass.
        if getattr(self, "_validated", False):
            return self
        if not self.threads:
            raise WorkloadError(f"program {self.name!r} has no threads")
        for thread in self.threads:
            thread.validate()
        for address in self.initial_memory:
            if address % WORD_BYTES:
                raise WorkloadError(
                    f"initial memory address {address:#x} is not word aligned")
            if address < 0:
                raise WorkloadError(f"negative initial memory address {address:#x}")
        self._validated = True
        return self
