"""The simulated multicore: cores + MRRs + memory system + global clock.

:class:`Machine` wires one :class:`~repro.cpu.core.Core` per thread of a
:class:`~repro.isa.program.Program` to a shared
:class:`~repro.mem.memsys.MemorySystem`, attaches any number of passive
recorder variants (Base/Opt x interval caps can all watch one execution,
since recording never perturbs it beyond the — shared — TRAQ) through one
:class:`~repro.recorder.mrr.RecorderBank` per core, and hands the wired
components to a simulation kernel (:mod:`repro.sim.kernel`).
The default ``event`` kernel advances the clock from wake-up to wake-up,
stepping only the cores that are due; the ``lockstep`` reference kernel
steps everything every visited cycle.  Both produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.config import (CoherenceProtocol, MachineConfig,
                             RecorderConfig)
from ..common.errors import ConfigError
from ..common.stats import Histogram, OnlineStats
from ..cpu.core import Core
from ..cpu.dynops import DynInstr
from ..isa.program import Program
from ..mem.coherence import SnoopEvent
from ..mem.memsys import MemorySystem
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..obs.tracer import Tracer
from ..recorder.logfmt import LogEntry
from ..recorder.mrr import RecorderBank, RecorderStats, RelaxReplayRecorder
from ..recorder.ordering import DependenceTracker
from ..recorder.traq import TraqEntry, TrackingQueue
from .kernel import KERNELS, OccupancySampler

__all__ = ["CoreResult", "RecorderOutput", "RunResult", "Machine"]


@dataclass
class RecorderOutput:
    """One recorder variant's log for one core."""

    core_id: int
    config: RecorderConfig
    entries: list[LogEntry]
    stats: RecorderStats


@dataclass
class CoreResult:
    """Per-core execution facts needed for reporting and verification."""

    core_id: int
    instructions: int
    mem_instructions: int
    loads: int
    stores: int
    rmws: int
    ooo_loads: int
    ooo_stores: int
    forwarded_loads: int
    traq_stall_cycles: int
    final_regs: list[int]
    traq_occupancy: OnlineStats
    traq_histogram: Histogram


@dataclass
class RunResult:
    """Everything a recording run produces."""

    program: Program
    config: MachineConfig
    cycles: int
    cores: list[CoreResult]
    recordings: dict[str, list[RecorderOutput]]
    final_memory: dict[int, int]
    bus_transactions: int
    load_trace: list[list[tuple[int, int, int]]] | None = None
    # Baseline recorders (repro.baselines) attached to the same execution,
    # keyed by name; each value is the per-core list of recorder objects.
    baselines: dict[str, list] = field(default_factory=dict)
    # Cyrus-style pairwise interval edges per variant (collected when the
    # run was started with collect_dependence_edges=True); consumed by
    # repro.replay.parallel.
    dependence_edges: dict[str, list] = field(default_factory=dict)
    # End-of-run flat metrics snapshot (repro.obs), always populated by
    # Machine.run; None only for hand-built results in tests.
    metrics: MetricsSnapshot | None = None

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    @property
    def variants(self) -> tuple[str, ...]:
        """Recorder variant names in sorted order (the first is the
        default replay and inspect target)."""
        return tuple(sorted(self.recordings))

    def log_entries(self, variant: str) -> list[list[LogEntry]]:
        """One variant's interval log per core."""
        return [output.entries for output in self.recordings[variant]]

    def recorder_config(self, variant: str) -> RecorderConfig:
        """The recorder configuration one variant's logs were made with."""
        return self.recordings[variant][0].config

    @property
    def total_mem_instructions(self) -> int:
        return sum(core.mem_instructions for core in self.cores)

    def ooo_fraction(self) -> dict[str, float]:
        """Figure 1 quantities: OoO loads/stores as fractions of all memory
        instructions."""
        mem = self.total_mem_instructions
        if not mem:
            return {"loads": 0.0, "stores": 0.0, "total": 0.0}
        loads = sum(core.ooo_loads for core in self.cores)
        stores = sum(core.ooo_stores for core in self.cores)
        return {"loads": loads / mem, "stores": stores / mem,
                "total": (loads + stores) / mem}

    def recording_stats(self, variant: str) -> RecorderStats:
        """Aggregate a variant's stats over all cores."""
        total = RecorderStats()
        for output in self.recordings[variant]:
            total.merge(output.stats)
        return total

    def log_rate_mb_per_s(self, variant: str) -> float:
        """Log generation rate in MB/s at the configured clock (Section 5.2)."""
        if not self.cycles:
            return 0.0
        bits = self.recording_stats(variant).log_bits
        seconds = self.cycles / (self.config.core.clock_ghz * 1e9)
        return bits / 8 / 1e6 / seconds

    def to_dict(self) -> dict:
        """JSON-able form (see :mod:`repro.sim.serialize`); the wire format
        sweep workers return results in and the result cache stores."""
        from .serialize import run_result_to_dict
        return run_result_to_dict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        from .serialize import run_result_from_dict
        return run_result_from_dict(data)


class _LoadTraceSink:
    """Optional sink recording every load-like value (verification aid)."""

    def __init__(self, trace: list[tuple[int, int, int]]):
        self.trace = trace

    def on_perform(self, dyn: DynInstr, cycle: int, out_of_order: bool) -> None:
        if dyn.is_load_like:
            self.trace.append((dyn.seq, dyn.addr, dyn.mem_value))

    def on_count(self, entry: TraqEntry, cycle: int) -> None:
        pass


class Machine:
    """A configured multicore ready to record executions."""

    def __init__(self, config: MachineConfig,
                 recorder_configs: dict[str, RecorderConfig] | None = None):
        self.config = config.validate()
        if recorder_configs is None:
            recorder_configs = {"default": config.recorder}
        if not recorder_configs:
            raise ConfigError("at least one recorder variant is required")
        for recorder_config in recorder_configs.values():
            recorder_config.validate()
        self.recorder_configs = dict(recorder_configs)

    def run(self, program: Program, *, max_cycles: int = 500_000_000,
            sample_interval: int = 200,
            capture_load_trace: bool = False,
            baseline_factories: dict | None = None,
            check_invariants_every: int | None = None,
            collect_dependence_edges: bool = False,
            tracer: Tracer | None = None,
            kernel: str = "event",
            profiler=None) -> RunResult:
        """Record one execution of ``program`` and return logs + facts.

        ``kernel`` selects the clock-advancement strategy (see
        :mod:`repro.sim.kernel`); every kernel produces identical results,
        so the choice is purely a speed/reference trade-off.

        ``profiler`` attaches a :class:`~repro.obs.profiler.KernelProfiler`
        that attributes simulated cycles and host wall time; it is a pure
        observer — the returned result is byte-identical with or without
        one.
        """
        try:
            run_kernel = KERNELS[kernel]
        except KeyError:
            raise ConfigError(
                f"unknown simulation kernel {kernel!r}; "
                f"expected one of {sorted(KERNELS)}") from None
        program.validate()
        config = self.config
        if program.num_threads != config.num_cores:
            config = config.with_cores(program.num_threads).validate()

        memsys = MemorySystem(config, program.initial_memory)
        traqs = [TrackingQueue(config.recorder.traq_entries,
                               config.recorder.nmi_bits)
                 for _ in range(config.num_cores)]
        cores = [Core(core_id, program.threads[core_id], config, memsys,
                      traqs[core_id])
                 for core_id in range(config.num_cores)]
        if tracer is not None:
            memsys.attach_tracer(tracer)
            for core_id, (core, traq) in enumerate(zip(cores, traqs)):
                core.tracer = tracer
                traq.tracer = tracer
                traq.core_id = core_id

        directory = config.protocol is CoherenceProtocol.DIRECTORY
        if directory and collect_dependence_edges:
            raise ConfigError(
                "pairwise dependence edges (parallel replay) require the "
                "snoopy protocol: a directory does not give every core the "
                "global view the weak ordering edges rely on")
        # One MRR module per core: the only recorder sink and snoop
        # listener of the core, driving every variant.
        banks = [RecorderBank(core_id, config.l1.line_bytes, seed=config.seed)
                 for core_id in range(config.num_cores)]
        recorders: dict[str, list[RelaxReplayRecorder]] = {}
        trackers: dict[str, DependenceTracker] = {}
        for name, recorder_config in self.recorder_configs.items():
            if directory:
                # Section 4.3: directory coherence needs the conservative
                # eviction handling for correctness.
                from dataclasses import replace as _replace
                recorder_config = _replace(
                    recorder_config, dirty_eviction_snoop_increment=True,
                    dirty_eviction_terminates=True)
            tracker = DependenceTracker() if collect_dependence_edges else None
            if tracker is not None:
                trackers[name] = tracker
            recorders[name] = [bank.add(name, recorder_config,
                                        dependence_tracker=tracker)
                               for bank in banks]
        for core, bank in zip(cores, banks):
            bank.tracer = tracer
            core.sinks.append(bank)
            memsys.add_listener(bank)

        baselines: dict[str, list] = {}
        for name, factory in (baseline_factories or {}).items():
            per_core = [factory(core_id, config)
                        for core_id in range(config.num_cores)]
            baselines[name] = per_core
            for core_id, recorder in enumerate(per_core):
                if hasattr(recorder, "core"):
                    recorder.core = cores[core_id]
                cores[core_id].sinks.append(recorder)
                memsys.add_listener(recorder)

        load_trace: list[list[tuple[int, int, int]]] | None = None
        if capture_load_trace:
            load_trace = [[] for _ in range(config.num_cores)]
            for core_id, core in enumerate(cores):
                core.sinks.append(_LoadTraceSink(load_trace[core_id]))

        occupancy_stats = [OnlineStats() for _ in range(config.num_cores)]
        occupancy_hists = [Histogram(bin_width=10) for _ in range(config.num_cores)]
        sampler = OccupancySampler(traqs, occupancy_stats, occupancy_hists,
                                   sample_interval, check_invariants_every,
                                   memsys)

        if profiler is None:
            cycle = run_kernel(program, cores, memsys, sampler, max_cycles)
        else:
            from time import perf_counter
            profiler.begin_run(config.num_cores)
            memsys.bus.profiler = profiler
            started = perf_counter()
            cycle = run_kernel(program, cores, memsys, sampler, max_cycles,
                               profiler)
            profiler.finish(cycle, perf_counter() - started)

        for bank in banks:
            bank.finish(cycle)
        for per_core in baselines.values():
            for recorder in per_core:
                recorder.finish(cycle)

        core_results = [
            CoreResult(
                core_id=core.core_id,
                instructions=core.instructions_retired,
                mem_instructions=core.mem_retired,
                loads=core.loads_performed,
                stores=core.stores_performed,
                rmws=core.rmws_performed,
                ooo_loads=core.ooo_loads,
                ooo_stores=core.ooo_stores,
                forwarded_loads=core.forwarded_loads,
                traq_stall_cycles=core.traq.stall_cycles,
                final_regs=list(core.arch_regs),
                traq_occupancy=occupancy_stats[core.core_id],
                traq_histogram=occupancy_hists[core.core_id],
            )
            for core in cores
        ]
        recordings = {
            name: [RecorderOutput(recorder.core_id, recorder.config,
                                  recorder.entries, recorder.stats)
                   for recorder in per_core]
            for name, per_core in recorders.items()
        }
        result = RunResult(
            program=program,
            config=config,
            cycles=cycle,
            cores=core_results,
            recordings=recordings,
            final_memory=memsys.memory_image(),
            bus_transactions=memsys.bus.committed,
            load_trace=load_trace,
            baselines=baselines,
            dependence_edges={name: tracker.edges_for()
                              for name, tracker in trackers.items()},
        )
        result.metrics = self._collect_metrics(result, memsys, tracer)
        return result

    @staticmethod
    def _collect_metrics(result: RunResult, memsys: MemorySystem,
                         tracer: Tracer | None) -> MetricsSnapshot:
        """Render everything the run produced into one flat registry."""
        registry = MetricsRegistry()
        machine = registry.scoped("machine")
        machine.gauge("cycles").set(result.cycles)
        machine.counter("instructions").value = result.total_instructions
        machine.counter("mem_instructions").value = result.total_mem_instructions
        for name, value in result.ooo_fraction().items():
            machine.gauge(f"ooo_fraction.{name}").set(value)

        bus = registry.scoped("bus")
        bus.counter("committed").value = memsys.bus.committed
        for kind, count in memsys.bus.committed_by_kind.items():
            bus.counter(f"committed.{kind.value}").value = count

        for core in result.cores:
            scope = registry.scoped(f"core{core.core_id}")
            scope.counter("instructions").value = core.instructions
            scope.counter("mem_instructions").value = core.mem_instructions
            scope.counter("loads").value = core.loads
            scope.counter("stores").value = core.stores
            scope.counter("rmws").value = core.rmws
            scope.counter("ooo_loads").value = core.ooo_loads
            scope.counter("ooo_stores").value = core.ooo_stores
            scope.counter("forwarded_loads").value = core.forwarded_loads
            scope.counter("traq_stall_cycles").value = core.traq_stall_cycles
            registry.observe_stats(f"traq{core.core_id}.occupancy",
                                   core.traq_occupancy, core.traq_histogram)
        for cache in memsys.caches:
            scope = registry.scoped(f"cache{cache.core_id}")
            scope.counter("hits").value = cache.hits
            scope.counter("misses").value = cache.misses
            scope.counter("evictions").value = cache.evictions

        for variant in result.recordings:
            stats = result.recording_stats(variant)
            registry.set_counters(stats.counters(),
                                  prefix=f"recorder.{variant}")
            registry.scoped(f"recorder.{variant}").gauge(
                "log_rate_mb_per_s").set(result.log_rate_mb_per_s(variant))

        if tracer is not None:
            registry.set_counters(tracer.stats())
        return registry.snapshot()
