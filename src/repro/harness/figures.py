"""Per-figure experiment computations (Section 5 of the paper).

Each ``figN_*`` function consumes an :class:`~repro.harness.runner.
ExperimentRunner` and returns plain data structures (dicts keyed by
workload/variant) holding the same quantities the paper plots.  Rendering
to text lives in :mod:`repro.harness.report`; shape assertions live in the
benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.config import ConsistencyModel, MachineConfig, RecorderMode
from ..replay import replay_recording
from ..sim import RunResult
from .runner import VARIANT_ORDER, ExperimentRunner, RunKey

__all__ = [
    "fig1_ooo_fractions",
    "fig9_reordered_fractions",
    "fig10_inorder_blocks",
    "fig11_log_sizes",
    "fig12_traq_utilization",
    "fig13_replay_times",
    "fig14_scalability",
    "table1_parameters",
    "baseline_log_comparison",
    "recording_overhead",
    "metrics_snapshot_table",
    "litmus_matrix",
    "required_runs",
    "EXPERIMENTS",
]

#: Every experiment ``repro.tools figures`` regenerates, by name, as a
#: function of the runner and the core count.  Each result renders with
#: the renderer of the same name in :data:`repro.harness.report.RENDERERS`.
EXPERIMENTS = {
    "table1": lambda runner, cores: table1_parameters(),
    "fig1": lambda runner, cores: fig1_ooo_fractions(runner, cores=cores),
    "fig9": lambda runner, cores: fig9_reordered_fractions(runner,
                                                           cores=cores),
    "fig10": lambda runner, cores: fig10_inorder_blocks(runner, cores=cores),
    "fig11": lambda runner, cores: fig11_log_sizes(runner, cores=cores),
    "fig12": lambda runner, cores: fig12_traq_utilization(runner,
                                                          cores=cores),
    "fig13": lambda runner, cores: fig13_replay_times(runner, cores=cores),
    "fig14": lambda runner, cores: fig14_scalability(runner),
    "baselines": lambda runner, cores: baseline_log_comparison(runner,
                                                               cores=cores),
    "overhead": lambda runner, cores: recording_overhead(runner, cores=cores),
    "litmus": lambda runner, cores: litmus_matrix(),
    "metrics": lambda runner, cores: metrics_snapshot_table(runner,
                                                            cores=cores),
}

#: Experiments whose inputs are the default workload grid at one core count.
_SINGLE_GRID_EXPERIMENTS = frozenset({
    "fig1", "fig9", "fig10", "fig11", "fig12", "fig13", "overhead",
    "metrics",
})

#: Core counts fig14 sweeps (kept in sync with ``fig14_scalability``).
_FIG14_CORE_COUNTS = (4, 8, 16)


def required_runs(experiments, runner: ExperimentRunner, *,
                  cores: int = 8) -> list[RunKey]:
    """Every recorded execution the named experiments will ask the runner
    for — the sweep grid the parallel prefetcher shards across workers.

    Experiments that need no recordings (``table1``, ``litmus``) map to
    nothing; unknown names are ignored (the CLI validates them upfront).
    """
    keys: list[RunKey] = []

    def need(key: RunKey) -> None:
        if key not in keys:
            keys.append(key)

    for name in experiments:
        if name in _SINGLE_GRID_EXPERIMENTS:
            for workload in runner.workloads:
                need(runner.run_key(workload, cores=cores))
        elif name == "fig14":
            for count in _FIG14_CORE_COUNTS:
                for workload in runner.workloads:
                    need(runner.run_key(workload, cores=count))
        elif name == "baselines":
            for workload in runner.workloads:
                need(runner.run_key(workload, cores=cores))
                need(runner.run_key(workload, cores=cores,
                                    consistency=ConsistencyModel.SC,
                                    with_baselines=True))
                need(runner.run_key(workload, cores=cores,
                                    consistency=ConsistencyModel.TSO,
                                    with_baselines=True))
    return keys


def litmus_matrix() -> dict:
    """Observed outcomes and model violations of every litmus test under
    every consistency model (the ``litmus`` experiment)."""
    from ..workloads.litmus import LITMUS_TESTS, run_litmus

    out = {}
    for name, test in LITMUS_TESTS.items():
        out[name] = {}
        for model in ConsistencyModel:
            result = run_litmus(test, model)
            out[name][model.value] = {
                "observed": sorted(result.observed),
                "violations": sorted(result.violations),
            }
    return out


def _average(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------- Figure 1

def fig1_ooo_fractions(runner: ExperimentRunner, *, cores: int = 8) -> dict:
    """Fraction of memory accesses performed out of program order."""
    rows = {}
    for name in runner.workloads:
        rows[name] = runner.record(name, cores=cores).ooo_fraction()
    rows["average"] = {
        "loads": _average(r["loads"] for r in rows.values()),
        "stores": _average(r["stores"] for r in rows.values()),
        "total": _average(r["total"] for r in rows.values()),
    }
    return rows


# --------------------------------------------------------------- Figure 9

def fig9_reordered_fractions(runner: ExperimentRunner, *, cores: int = 8,
                             variants=VARIANT_ORDER) -> dict:
    """Reordered accesses as a fraction of all memory accesses, with the
    load/store split the paper notes ("loads dominate")."""
    rows: dict[str, dict] = {}
    for name in runner.workloads:
        result = runner.record(name, cores=cores)
        rows[name] = {}
        for variant in variants:
            stats = result.recording_stats(variant)
            rows[name][variant] = {
                "fraction": stats.reordered_fraction,
                "loads": stats.reordered_loads,
                "stores": stats.reordered_stores,
                "rmws": stats.reordered_rmws,
            }
    rows["average"] = {
        variant: {"fraction": _average(rows[name][variant]["fraction"]
                                       for name in runner.workloads)}
        for variant in variants
    }
    return rows


# -------------------------------------------------------------- Figure 10

def fig10_inorder_blocks(runner: ExperimentRunner, *, cores: int = 8) -> dict:
    """InorderBlock entry counts, Opt normalized to Base (per interval cap)."""
    rows: dict[str, dict] = {}
    for name in runner.workloads:
        result = runner.record(name, cores=cores)
        rows[name] = {}
        for cap in ("4k", "inf", "512"):
            base = result.recording_stats(f"base_{cap}").inorder_blocks
            opt = result.recording_stats(f"opt_{cap}").inorder_blocks
            rows[name][cap] = {
                "base_blocks": base,
                "opt_blocks": opt,
                "opt_normalized": opt / base if base else 0.0,
            }
    rows["average"] = {
        cap: {"opt_normalized": _average(rows[name][cap]["opt_normalized"]
                                         for name in runner.workloads)}
        for cap in ("4k", "inf", "512")
    }
    return rows


# -------------------------------------------------------------- Figure 11

def fig11_log_sizes(runner: ExperimentRunner, *, cores: int = 8,
                    variants=VARIANT_ORDER) -> dict:
    """Uncompressed log size (bits per kilo-instruction) and the Section 5.2
    log generation rates in MB/s."""
    rows: dict[str, dict] = {}
    for name in runner.workloads:
        result = runner.record(name, cores=cores)
        rows[name] = {}
        for variant in variants:
            stats = result.recording_stats(variant)
            rows[name][variant] = {
                "bits_per_ki": stats.bits_per_kilo_instruction(),
                "mb_per_s": result.log_rate_mb_per_s(variant),
                "frames": stats.frames,
                "entry_bits_by_type": dict(stats.entry_bits_by_type),
            }
    rows["average"] = {
        variant: {
            "bits_per_ki": _average(rows[name][variant]["bits_per_ki"]
                                    for name in runner.workloads),
            "mb_per_s": _average(rows[name][variant]["mb_per_s"]
                                 for name in runner.workloads),
        }
        for variant in variants
    }
    return rows


# -------------------------------------------------------------- Figure 12

def fig12_traq_utilization(runner: ExperimentRunner, *, cores: int = 8,
                           histogram_apps=("fft", "radix", "barnes",
                                           "water_nsquared")) -> dict:
    """Average TRAQ occupancy per app, plus occupancy histograms (10-entry
    bins, as in the paper's chart (b)) for representative applications."""
    averages = {}
    histograms = {}
    stalls = {}
    for name in runner.workloads:
        result = runner.record(name, cores=cores)
        per_core = [core.traq_occupancy.mean for core in result.cores]
        averages[name] = _average(per_core)
        stall_cycles = sum(core.traq_stall_cycles for core in result.cores)
        stalls[name] = stall_cycles / (result.cycles * len(result.cores))
        if name in histogram_apps:
            merged: dict[int, int] = {}
            samples = 0
            for core in result.cores:
                for bin_index, count in core.traq_histogram.counts.items():
                    merged[bin_index] = merged.get(bin_index, 0) + count
                samples += core.traq_histogram.samples
            histograms[name] = {bin_index: count / samples
                                for bin_index, count in sorted(merged.items())}
    return {"average_occupancy": averages, "histograms": histograms,
            "stall_fraction": stalls}


# -------------------------------------------------------------- Figure 13

def fig13_replay_times(runner: ExperimentRunner, *, cores: int = 8,
                       variants=VARIANT_ORDER) -> dict:
    """Replay time normalized to (parallel) recording time, split into user
    and OS cycles.  Every replay is verified for determinism as it runs."""
    rows: dict[str, dict] = {}
    for name in runner.workloads:
        result = runner.record(name, cores=cores)
        rows[name] = {}
        for variant in variants:
            replay = replay_recording(result, variant)
            rows[name][variant] = replay.normalized_to_recording(result.cycles)
    rows["average"] = {
        variant: {key: _average(rows[name][variant][key]
                                for name in runner.workloads)
                  for key in ("user", "os", "total")}
        for variant in variants
    }
    return rows


# -------------------------------------------------------------- Figure 14

def fig14_scalability(runner: ExperimentRunner, *,
                      core_counts=_FIG14_CORE_COUNTS,
                      variants=VARIANT_ORDER) -> dict:
    """Reordered fraction and log rate vs processor count (averages over all
    applications, as the paper plots)."""
    rows: dict[int, dict] = {}
    for cores in core_counts:
        rows[cores] = {}
        for variant in variants:
            fractions = []
            rates = []
            for name in runner.workloads:
                result = runner.record(name, cores=cores)
                fractions.append(
                    result.recording_stats(variant).reordered_fraction)
                rates.append(result.log_rate_mb_per_s(variant))
            rows[cores][variant] = {
                "reordered_fraction": _average(fractions),
                "log_mb_per_s": _average(rates),
            }
    return rows


# ---------------------------------------------------------------- Table 1

def table1_parameters(config: MachineConfig | None = None) -> dict:
    """The architectural-parameter table, plus the per-processor MRR sizes
    Section 5.1 derives from it (2.3KB for Base, 3.3KB for Opt)."""
    config = (config or MachineConfig()).validate()
    base = config.with_recorder(mode=RecorderMode.BASE)
    opt = config.with_recorder(mode=RecorderMode.OPT)
    rec = config.recorder
    return {
        "multicore": f"Ring-based with MESI snoopy protocol, "
                     f"{config.num_cores} cores",
        "core": f"{config.core.issue_width}-way out-of-order @ "
                f"{config.core.clock_ghz}GHz, {config.core.rob_entries}-entry "
                f"ROB, {config.core.ldst_units} Ld/St units, "
                f"{config.core.lsq_entries}-entry Ld/St queue",
        "l1": f"Private, {config.l1.size_kb}KB, {config.l1.assoc}-way, "
              f"{config.l1.mshr_entries}-entry MSHR, {config.l1.line_bytes}B "
              f"line, {config.l1.hit_cycles}-cycle round-trip",
        "l2": f"Shared, {config.l2.size_kb_per_core}KB/core, "
              f"{config.l2.assoc}-way, {config.l2.roundtrip_cycles}-cycle "
              f"avg round-trip",
        "ring": f"{config.ring.width_bytes}B wide, "
                f"{config.ring.hop_cycles}-cycle hop delay",
        "memory": f"{config.memory.roundtrip_cycles}-cycle round-trip from L2",
        "signatures": f"each {rec.signature_banks} x "
                      f"{rec.signature_bits_per_bank}-bit Bloom filters "
                      f"with H3 hash",
        "traq": f"{rec.traq_entries} entries",
        "snoop_table": f"{rec.snoop_table_arrays} arrays, "
                       f"{rec.snoop_table_entries} entries each, "
                       f"{rec.snoop_table_counter_bits}-bit entries",
        "mrr_bytes_base": base.mrr_size_bytes(),
        "mrr_bytes_opt": opt.mrr_size_bytes(),
    }


# ------------------------------------------------- Section 5.2 comparison

def baseline_log_comparison(runner: ExperimentRunner, *, cores: int = 8) -> dict:
    """RelaxReplay_Opt (recording RC) vs the SC/TSO baselines (recording the
    strongest execution they support) — the Section 5.2 "1-4x" claim."""
    rows: dict[str, dict] = {}
    for name in runner.workloads:
        rc = runner.record(name, cores=cores)
        sc = runner.record(name, cores=cores,
                           consistency=ConsistencyModel.SC,
                           with_baselines=True)
        tso = runner.record(name, cores=cores,
                            consistency=ConsistencyModel.TSO,
                            with_baselines=True)

        def baseline_bits(result: RunResult, key: str) -> float:
            recorders = result.baselines[key]
            if hasattr(recorders[0], "stats"):
                bits = sum(r.stats.log_bits for r in recorders)
                instr = sum(r.stats.instructions_counted for r in recorders)
            else:
                bits = sum(r.log_bits for r in recorders)
                instr = sum(r.instructions_counted for r in recorders)
            return bits * 1000.0 / instr if instr else 0.0

        opt = rc.recording_stats("opt_inf").bits_per_kilo_instruction()
        rows[name] = {
            "relaxreplay_opt_rc": opt,
            "sc_chunk_sc": baseline_bits(sc, "sc_chunk"),
            "fdr_sc": baseline_bits(sc, "fdr"),
            "coreracer_tso": baseline_bits(tso, "coreracer"),
            "rtr_tso": baseline_bits(tso, "rtr"),
        }
        chunk = rows[name]["sc_chunk_sc"]
        rows[name]["opt_vs_sc_chunk"] = opt / chunk if chunk else 0.0
    rows["average"] = {key: _average(rows[name][key]
                                     for name in runner.workloads)
                       for key in next(iter(rows.values()))}
    return rows


# ---------------------------------------------------------- Section 5.3

def recording_overhead(runner: ExperimentRunner, *, cores: int = 8) -> dict:
    """The two recording-overhead sources Section 5.3 analyzes: TRAQ-full
    dispatch stalls and log bandwidth."""
    rows = {}
    for name in runner.workloads:
        result = runner.record(name, cores=cores)
        stall = (sum(core.traq_stall_cycles for core in result.cores)
                 / (result.cycles * len(result.cores)))
        rows[name] = {
            "traq_stall_fraction": stall,
            "log_mb_per_s_opt_4k": result.log_rate_mb_per_s("opt_4k"),
            "log_mb_per_s_base_4k": result.log_rate_mb_per_s("base_4k"),
        }
    rows["average"] = {key: _average(rows[name][key]
                                     for name in runner.workloads)
                       for key in next(iter(rows.values()))}
    return rows


# ----------------------------------------------------- metrics snapshot

def metrics_snapshot_table(runner: ExperimentRunner, *, cores: int = 8,
                           variants=VARIANT_ORDER) -> dict:
    """Headline quantities straight from the run's metrics registry
    (EXPERIMENTS.md "metrics" table): log bits per variant, mean/p95 TRAQ
    occupancy, and the out-of-order fraction, one row per workload."""
    rows = {}
    for name in runner.workloads:
        snapshot = runner.record(name, cores=cores).metrics
        num_cores = 1 + max(
            int(key[4:].split(".")[0]) for key in snapshot.to_dict()
            if key.startswith("traq") and key.endswith(".occupancy.mean"))
        rows[name] = {
            "ooo_fraction": snapshot["machine.ooo_fraction.total"],
            "traq_occupancy_mean": _average(
                snapshot[f"traq{c}.occupancy.mean"]
                for c in range(num_cores)),
            "traq_occupancy_p95": max(
                snapshot[f"traq{c}.occupancy.p95"]
                for c in range(num_cores)),
            "log_bits": {variant: snapshot[f"recorder.{variant}.log_bits"]
                         for variant in variants},
        }
    return rows
