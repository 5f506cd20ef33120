"""The benchmark's three workloads and the traced run's layer ladder.

Each workload has a set-up pass (``prepare``, repeated for a median), an
op that is timed, and a check of the op's output.  Every call into a
layer goes through its module attribute (``storage.save_recording``, not
an imported name), so the traced run's wrappers see it.  See README.md
for why these workloads and which layers each one carries.
"""

from __future__ import annotations

import inspect
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path

from repro import storage
from repro.common.config import ConsistencyModel, MachineConfig
from repro.common.hashing import stable_digest
from repro.harness import figures, report, runner
from repro.harness.parallel_runner import ResultCache, cache_key
from repro.harness.runner import VARIANTS, ExperimentRunner, RunKey
from repro.replay import parallel
from repro.sim.kernel import KERNELS
from repro.sim.machine import Machine
from repro.sim.serialize import run_result_to_dict
from repro.workloads import WORKLOAD_NAMES

DEFAULT_SEED = 1

#: Digests of the op outputs at DEFAULT_SEED and the workloads' own scale.
EXPECTED = json.loads(
    (Path(__file__).with_name("expected.json")).read_text())

#: Variant the one-variant runs of the ladder record with.
ONE = {"opt_4k": VARIANTS["opt_4k"]}

#: Scale of the untimed runs that warm each kernel before it is timed.
WARM_SCALE = 0.05

#: The kernel ``Machine.run`` uses unless told otherwise.
DEFAULT_KERNEL = inspect.signature(Machine.run).parameters["kernel"].default


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def rc_config(cores: int, seed: int) -> MachineConfig:
    """The harness's default machine (``execute_run``) under RC."""
    return MachineConfig(num_cores=cores, consistency=ConsistencyModel.RC,
                         seed=seed)


@dataclass
class Subject:
    """The recorded cell the ladder runs the layers it has not seen on."""

    workload: str
    cores: int
    scale: float
    seed: int
    program: object
    result: object | None = None

    @property
    def config(self) -> MachineConfig:
        return rc_config(self.cores, self.seed)

    @property
    def key(self) -> RunKey:
        return RunKey(self.workload, self.cores, self.scale, self.seed,
                      ConsistencyModel.RC, False)


def run_counts(results) -> dict[str, float]:
    """Simulated counts of recorded cells; a pure speed-up leaves every
    one unchanged."""
    totals = {"cycles": 0, "instructions": 0, "bus": 0, "hits": 0,
              "misses": 0, "traq_stalls": 0}
    bits = {"opt_4k": 0, "base_4k": 0}
    reordered = {"opt_4k": [0, 0], "base_4k": [0, 0]}
    for result in results:
        totals["cycles"] += result.cycles
        totals["instructions"] += result.total_instructions
        totals["bus"] += result.bus_transactions
        totals["traq_stalls"] += sum(c.traq_stall_cycles
                                     for c in result.cores)
        metrics = result.metrics.to_dict()
        for core in range(len(result.cores)):
            totals["hits"] += metrics[f"cache{core}.hits"]
            totals["misses"] += metrics[f"cache{core}.misses"]
        for variant in bits:
            stats = result.recording_stats(variant)
            bits[variant] += stats.log_bits
            reordered[variant][0] += stats.reordered_total
            reordered[variant][1] += stats.mem_counted
    accesses = totals["hits"] + totals["misses"]
    out = {
        "sim.cycles": totals["cycles"],
        "sim.instructions": totals["instructions"],
        "mem.bus_transactions": totals["bus"],
        "mem.l1_miss_ratio": totals["misses"] / accesses if accesses else 0.0,
        "cpu.traq_stall_cycles": totals["traq_stalls"],
    }
    for variant in bits:
        done, counted = reordered[variant]
        out[f"recorder.{variant}.log_bits"] = bits[variant]
        out[f"recorder.{variant}.reordered_fraction"] = (
            done / counted if counted else 0.0)
    return out


def cache_counts(counters: dict) -> dict[str, float]:
    """Hit ratio and quarantined entries of one pass over a cache."""
    lookups = counters["hits"] + counters["misses"]
    return {"harness.cache_hit_ratio": counters["hits"] / max(1, lookups),
            "harness.cache_corrupt": counters["corrupt"]}


def replay_stored(stored) -> dict[str, int]:
    """Replay and verify every stored variant; returns the summed replay
    counts.  A divergence raises (the op fails)."""
    totals = {"replay.intervals": 0, "replay.injected_loads": 0,
              "replay.patched_writes": 0}
    for variant in stored.variants:
        out = stored.replay(variant, verify=True)
        if not out.verified:
            raise CheckFailed(f"{variant}: replay not verified")
        totals["replay.intervals"] += out.counts.intervals
        totals["replay.injected_loads"] += out.counts.injected_loads
        totals["replay.patched_writes"] += out.counts.patched_writes
    return totals


def regenerate(experiment_runner, cores: int) -> str:
    """fig1 and fig9-fig12 over the runner's grid, rendered as text."""
    results = {
        "fig1": figures.fig1_ooo_fractions(experiment_runner, cores=cores),
        "fig9": figures.fig9_reordered_fractions(experiment_runner,
                                                 cores=cores),
        "fig10": figures.fig10_inorder_blocks(experiment_runner, cores=cores),
        "fig11": figures.fig11_log_sizes(experiment_runner, cores=cores),
        "fig12": figures.fig12_traq_utilization(experiment_runner,
                                                cores=cores),
    }
    return report.render_all(results)


class Workload:
    name = ""
    scale = 1.0
    #: Ladder stages the workload's own set-up and op do not cover.
    ladder = ()

    def __init__(self, seed: int, tmp: Path, scale: float | None = None):
        self.seed = seed
        self.tmp = tmp
        if scale is not None:
            self.scale = scale
        self.counts: dict[str, float] = {}
        #: Layer times the ladder measures itself, in host seconds.
        self.host_seconds: dict[str, float] = {}
        #: Instructions and sweep cells one op processes.
        self.instructions = 0
        self.cells = 1

    def prepare(self, index: int) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def check(self, output) -> None:
        raise NotImplementedError

    def subject(self) -> Subject:
        raise NotImplementedError

    def expect(self, key: str, digest: str) -> None:
        """At the default seed and scale, ``digest`` must be committed."""
        if self.seed == DEFAULT_SEED and self.scale == type(self).scale:
            want = EXPECTED[self.name][key]
            if digest != want:
                raise CheckFailed(f"{key} digest {digest}, committed {want}")


class RecordFft16(Workload):
    """One figure-sweep cell: fft, 16 cores, RC, six recorder variants."""

    name = "record-fft16"
    scale = 0.25
    ladder = ("kernels", "storage", "parallel", "cache")

    def prepare(self, index: int) -> None:
        self.program = runner.build_workload("fft", num_threads=16,
                                             scale=self.scale, seed=self.seed)
        self.config = rc_config(16, self.seed)
        self.digest = None

    def op(self):
        return Machine(self.config, VARIANTS).run(self.program)

    def check(self, result) -> None:
        digest = stable_digest(run_result_to_dict(result))
        if self.digest is None:
            self.digest = digest
            self.instructions = result.total_instructions
            self.counts = run_counts([result])
        elif digest != self.digest:
            raise CheckFailed(f"result digest {digest} differs from the "
                              f"run's first op {self.digest}")
        self.expect("result", digest)

    def subject(self) -> Subject:
        return Subject("fft", 16, self.scale, self.seed, self.program)


class ReplayRadix8(Workload):
    """Replay a stored radix recording (8 cores, RC), every variant."""

    name = "replay-radix8"
    scale = 1.0
    ladder = ("kernels", "profile", "parallel", "cache")

    def prepare(self, index: int) -> None:
        self.program = runner.build_workload("radix", num_threads=8,
                                             scale=self.scale, seed=self.seed)
        self.result = Machine(rc_config(8, self.seed),
                              VARIANTS).run(self.program)
        self.path = self.tmp / f"recording-{index}"
        storage.save_recording(self.result, self.path)
        self.instructions = self.result.total_instructions * len(VARIANTS)
        self.counts = run_counts([self.result])

    def op(self):
        stored = storage.load_recording(self.path)
        return replay_stored(stored)

    def check(self, replayed) -> None:
        if "replay.intervals" in self.counts and any(
                self.counts[key] != value for key, value in replayed.items()):
            raise CheckFailed(f"replay counts {replayed} differ from the "
                              f"run's first op")
        self.counts.update(replayed)

    def subject(self) -> Subject:
        return Subject("radix", 8, self.scale, self.seed, self.program,
                       self.result)

    def flip_log_bit(self):
        """Planted fault: flip the first bit of core 0's log of the first
        variant (its entry type); returns the undo."""
        variant = next(iter(VARIANTS))
        path = self.path / "logs" / variant / "core0.bin"
        original = path.read_bytes()
        path.write_bytes(bytes([original[0] ^ 0x80]) + original[1:])
        return lambda: path.write_bytes(original)


class FiguresWarm(Workload):
    """Regenerate fig1 and fig9-fig12 from a warm SQLite result cache."""

    name = "figures-warm"
    scale = 0.1
    cores = 8
    #: All twelve apps, as the paper's tables have them.  A cell's warm
    #: cost follows its log size, which moves with the seed; over twelve
    #: cells that averages out where over four it did not (README.md).
    grid = WORKLOAD_NAMES
    #: The grid cell the ladder runs on.
    subject_app = "fft"
    ladder = ("kernels", "profile", "storage", "parallel")

    def __init__(self, seed: int, tmp: Path, scale: float | None = None):
        super().__init__(seed, tmp, scale)
        self.cells = len(self.grid)
        self.cold_text = None

    def experiment_runner(self) -> ExperimentRunner:
        return ExperimentRunner(seed=self.seed, scale=self.scale,
                                workloads=self.grid, jobs=1,
                                cache_backend=f"sqlite:{self.cache_path}")

    def prepare(self, index: int) -> None:
        self.cache_path = self.tmp / f"results-{index}.sqlite"
        cold = self.experiment_runner()
        try:
            text = regenerate(cold, self.cores)
            results = [cold.record(app, cores=self.cores)
                       for app in self.grid]
        finally:
            cold.cache.close()
        if self.cold_text is not None and text != self.cold_text:
            raise CheckFailed("cold tables differ between set-up passes")
        self.cold_text = text
        # The warm op rebuilds and validates every cell's program from the
        # cache; that is most of its work, and the static size of the
        # programs does not depend on the seed.
        self.instructions = sum(len(thread.instructions) for r in results
                                for thread in r.program.threads)
        self.counts = run_counts(results)
        self.subject_cell = results[self.grid.index(self.subject_app)]

    def op(self):
        warm = self.experiment_runner()
        try:
            return regenerate(warm, self.cores), warm.cache.counters()
        finally:
            warm.cache.close()

    def check(self, output) -> None:
        text, counters = output
        self.counts.update(cache_counts(counters))
        if counters["hits"] != self.cells or counters["misses"] or \
                counters["corrupt"]:
            raise CheckFailed(f"warm pass was not all cache hits: {counters}")
        if text != self.cold_text:
            raise CheckFailed("warm tables differ from the cold tables")
        self.expect("tables", stable_digest(text))

    def subject(self) -> Subject:
        return Subject(self.subject_app, self.cores, self.scale, self.seed,
                       self.subject_cell.program, self.subject_cell)

    def corrupt_cache_entry(self):
        """Planted fault: overwrite the first grid cell's cache entry with
        bytes that are not an envelope.  The op's runner quarantines it
        and re-records the cell, so the fault lasts one op."""
        key = cache_key(Subject(self.grid[0], self.cores, self.scale,
                                self.seed, None).key, VARIANTS)
        with sqlite3.connect(self.cache_path) as db:
            db.execute("UPDATE entries SET data = ? WHERE key = ?",
                       (b"{not an envelope", key))
        return None


WORKLOADS = {cls.name: cls for cls in (RecordFft16, ReplayRadix8,
                                       FiguresWarm)}


# --------------------------------------------------------------- ladder

def ladder_kernels(rec, subject: Subject, wl: Workload) -> None:
    """Every kernel in the registry on the subject with one variant; all
    must serialize identically.  The default kernel also runs with all
    six variants for the recorders' share; that result becomes the
    subject's for the stages after this one."""
    config = subject.config
    warm = runner.build_workload(subject.workload, num_threads=subject.cores,
                                 scale=WARM_SCALE, seed=subject.seed)
    digests = {}
    for kernel in KERNELS:
        Machine(config, ONE).run(warm, kernel=kernel)
        with rec.span(f"sim.{kernel}.run") as span:
            result = Machine(config, ONE).run(subject.program, kernel=kernel)
            span.attrs["instructions"] = result.total_instructions
        if kernel == DEFAULT_KERNEL:
            one_variant_s = span.duration
        digests[kernel] = stable_digest(run_result_to_dict(result))
        result = None
    with rec.span(f"sim.{DEFAULT_KERNEL}.run_all_variants") as span:
        subject.result = Machine(config, VARIANTS).run(subject.program)
    wl.host_seconds["recorder.s_per_variant"] = (
        (span.duration - one_variant_s) / (len(VARIANTS) - 1))
    if len(set(digests.values())) != 1:
        raise CheckFailed(f"kernels disagree: {digests}")


def ladder_profile(rec, subject: Subject, wl: Workload) -> None:
    """Host split (core step, memory system, sampler, scheduler) of one
    six-variant record of the subject."""
    rec.profile = True
    try:
        Machine(subject.config, VARIANTS).run(subject.program)
    finally:
        rec.profile = False


def ladder_storage(rec, subject: Subject, wl: Workload) -> None:
    """save -> load -> replay and verify every variant of the subject."""
    path = wl.tmp / "ladder-recording"
    storage.save_recording(subject.result, path)
    wl.counts.update(replay_stored(storage.load_recording(path)))


def ladder_parallel(rec, subject: Subject, wl: Workload) -> None:
    """DAG-parallel replay of an edge-collecting one-variant recording."""
    result = Machine(subject.config, ONE).run(subject.program,
                                              collect_dependence_edges=True)
    out = parallel.parallel_replay_recording(result, next(iter(ONE)))
    if not out.verified:
        raise CheckFailed("parallel replay not verified")


def ladder_cache(rec, subject: Subject, wl: Workload) -> None:
    """Put the subject's cell in a fresh SQLite cache, then regenerate
    the tables for that one cell from it."""
    spec = f"sqlite:{wl.tmp / 'ladder-results.sqlite'}"
    cache = ResultCache.from_spec(spec)
    try:
        cache.put(subject.key, subject.result, VARIANTS)
    finally:
        cache.close()
    warm = ExperimentRunner(seed=subject.seed, scale=subject.scale,
                            workloads=(subject.workload,), jobs=1,
                            cache_backend=spec)
    try:
        regenerate(warm, subject.cores)
        counters = warm.cache.counters()
    finally:
        warm.cache.close()
    wl.counts.update(cache_counts(counters))
    if counters["hits"] != 1 or counters["corrupt"]:
        raise CheckFailed(f"ladder cache pass was not one hit: {counters}")


LADDER = {
    "kernels": ladder_kernels,
    "profile": ladder_profile,
    "storage": ladder_storage,
    "parallel": ladder_parallel,
    "cache": ladder_cache,
}
