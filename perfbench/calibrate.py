"""Host-speed calibration: a fixed pure-Python probe sampled inside the
timed work.

The benchmark's hosts are shared: a single thread's speed switches
between a fast and a slow mode (up to 1.7x apart) every few seconds with
what other tenants run, while its CPU time tracks its wall time (the
slowdown is contention for the core, its caches and memory, not lost
time slices).  So while a set-up pass or an op runs, a ``SIGPROF``
timer interrupts it every ``INTERVAL_S`` of CPU time and times a fixed
probe of pure-Python work that imports nothing from ``repro``.  The
probe samples the host at the same instants as the work around it.
Times are then reported in *reference seconds*: host seconds scaled by
``REFERENCE_PROBE_S`` over the phase's mean probe time.  A change to
the program moves the op times and not the probe, so it shows in full; a
host that runs everything 30% slower moves both, and cancels out.

The probe does integer arithmetic, attribute access and method calls on
a small table of slotted objects, and dict lookups in it.  It allocates
no container, so it never triggers the cyclic garbage collector or moves
where the program's collections fall.  A short untimed pass first brings
its table and code back into the caches the interrupted work evicted
them from, so the program's memory footprint does not leak into the
probe's time.  The probe and its timer cost about 2% of the timed work.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

#: CPU seconds between two probes.
INTERVAL_S = 0.025

#: Seconds one probe is scaled to: roughly a probe's time on the
#: development host (2 vCPUs of an Intel Xeon) in its fast mode, so
#: reference seconds read close to that host's seconds.
REFERENCE_PROBE_S = 0.0003


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int):
        self.key = key
        self.value = key

    def bump(self, amount: int) -> int:
        self.value = (self.value + amount) & 0xFFFF
        return self.value


def probe(table: dict[int, _Slot], steps: int = 1000) -> int:
    """Fixed work on a table of 64 slots; returns a checksum."""
    total = 0
    for i in range(steps):
        slot = table[(i * 40503) & 63]
        total += slot.bump(i) ^ ((i * i) % 7)
    return total


class Calibration:
    """Probe times of one run, by phase (set-up, op, ...), and the scale
    they give.  Use as a context manager: it owns ``SIGPROF`` while open.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self._table = {key: _Slot(key) for key in range(64)}
        self._current: list[float] | None = None
        self._previous = None

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _on_timer(self, signum, frame) -> None:
        if self._current is not None:
            self._current.append(self._sample())

    def _sample(self) -> float:
        probe(self._table, 100)
        started = time.perf_counter()
        probe(self._table)
        return time.perf_counter() - started

    @contextmanager
    def sampling(self, phase: str):
        """Probe the block's host while it runs; a block too short for
        the timer to fire gets one probe after it."""
        self._current = samples = self.samples.setdefault(phase, [])
        before = len(samples)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            self._current = None
            if len(samples) == before:
                samples.append(self._sample())

    def probe_s(self, *phases: str) -> float:
        """Mean probe seconds over ``phases`` (over every phase when none
        is named)."""
        chosen = [self.samples.get(phase, []) for phase in phases] \
            if phases else list(self.samples.values())
        times = [seconds for samples in chosen for seconds in samples]
        return sum(times) / len(times)

    def reference_s(self, host_s: float, *phases: str) -> float:
        """``host_s`` host seconds, spent in ``phases``, as reference
        seconds."""
        return host_s * REFERENCE_PROBE_S / self.probe_s(*phases)
