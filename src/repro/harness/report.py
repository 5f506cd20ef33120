"""Text rendering of harness results in the paper's units."""

from __future__ import annotations

from .runner import VARIANT_ORDER

__all__ = ["RENDERERS", "format_table", "render_all", "render_sweep_summary"]


def format_table(title: str, headers: list[str], rows: list[list],
                 *, floatfmt: str = "{:.3f}") -> str:
    """Render an aligned text table."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return floatfmt.format(cell)
        return str(cell)

    body = [[fmt(cell) for cell in row] for row in rows]
    widths = [max(len(headers[i]), *(len(row[i]) for row in body)) if body
              else len(headers[i]) for i in range(len(headers))]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in body:
        lines.append("  ".join(row[i].rjust(widths[i])
                               for i in range(len(row))))
    return "\n".join(lines) + "\n"


def render_fig1(data: dict) -> str:
    rows = [[name, 100 * row["loads"], 100 * row["stores"], 100 * row["total"]]
            for name, row in data.items()]
    return format_table(
        "Figure 1: memory accesses performed out of program order (%)",
        ["workload", "ooo loads %", "ooo stores %", "total %"], rows,
        floatfmt="{:.1f}")


def render_fig9(data: dict) -> str:
    rows = []
    for name, per_variant in data.items():
        rows.append([name] + [100 * per_variant[v]["fraction"]
                              for v in VARIANT_ORDER if v in per_variant])
    return format_table(
        "Figure 9: reordered accesses (% of memory accesses)",
        ["workload"] + list(VARIANT_ORDER), rows, floatfmt="{:.3f}")


def render_fig10(data: dict) -> str:
    rows = []
    for name, per_cap in data.items():
        rows.append([name, per_cap["4k"]["opt_normalized"],
                     per_cap["inf"]["opt_normalized"],
                     per_cap["512"]["opt_normalized"]])
    return format_table(
        "Figure 10: InorderBlock entries, Opt normalized to Base",
        ["workload", "4K cap", "INF cap", "512 cap"], rows)


def render_fig11(data: dict) -> str:
    rows = []
    for name, per_variant in data.items():
        row = [name]
        for variant in VARIANT_ORDER:
            row.append(per_variant[variant]["bits_per_ki"])
        row.append(per_variant["opt_4k"]["mb_per_s"])
        row.append(per_variant["base_4k"]["mb_per_s"])
        rows.append(row)
    return format_table(
        "Figure 11: uncompressed log size (bits / kilo-instruction) "
        "and rates (MB/s)",
        ["workload"] + [f"{v} b/KI" for v in VARIANT_ORDER]
        + ["opt_4k MB/s", "base_4k MB/s"], rows, floatfmt="{:.1f}")


def render_fig12(data: dict) -> str:
    rows = [[name, occupancy, 100 * data["stall_fraction"][name]]
            for name, occupancy in data["average_occupancy"].items()]
    text = format_table(
        "Figure 12(a): average TRAQ occupancy (entries of 176) "
        "and dispatch-stall share (%)",
        ["workload", "avg entries", "stall %"], rows, floatfmt="{:.2f}")
    for name, hist in data["histograms"].items():
        bins = ", ".join(f"[{10 * b}-{10 * b + 9}]:{100 * f:.0f}%"
                         for b, f in hist.items())
        text += f"Figure 12(b) {name}: {bins}\n"
    return text


def render_fig13(data: dict) -> str:
    rows = []
    for name, per_variant in data.items():
        row = [name]
        for variant in VARIANT_ORDER:
            entry = per_variant[variant]
            row.append(f"{entry['total']:.1f} ({entry['user']:.1f}u/"
                       f"{entry['os']:.1f}os)")
        rows.append(row)
    return format_table(
        "Figure 13: sequential replay time, normalized to parallel "
        "recording time (total (user/OS))",
        ["workload"] + list(VARIANT_ORDER), rows)


def render_fig14(data: dict) -> str:
    rows = []
    for cores, per_variant in data.items():
        for variant in VARIANT_ORDER:
            entry = per_variant[variant]
            rows.append([f"P{cores}", variant,
                         100 * entry["reordered_fraction"],
                         entry["log_mb_per_s"]])
    return format_table(
        "Figure 14: scalability with processor count",
        ["cores", "variant", "reordered %", "log MB/s"], rows,
        floatfmt="{:.3f}")


def render_table1(data: dict) -> str:
    rows = [[key, value] for key, value in data.items()
            if not key.startswith("mrr_")]
    rows.append(["MRR size (Base)", f"{data['mrr_bytes_base'] / 1024:.1f} KB"])
    rows.append(["MRR size (Opt)", f"{data['mrr_bytes_opt'] / 1024:.1f} KB"])
    return format_table("Table 1: architectural parameters",
                        ["parameter", "value"], rows)


def render_baselines(data: dict) -> str:
    rows = []
    for name, row in data.items():
        rows.append([name, row["relaxreplay_opt_rc"], row["sc_chunk_sc"],
                     row["coreracer_tso"], row["rtr_tso"], row["fdr_sc"],
                     row["opt_vs_sc_chunk"]])
    return format_table(
        "Section 5.2: log size vs SC/TSO baselines (bits / kilo-instruction)",
        ["workload", "RR_Opt(RC)", "SC-chunk(SC)", "CoreRacer(TSO)",
         "RTR(TSO)", "FDR(SC)", "Opt/SC-chunk"], rows, floatfmt="{:.0f}")


def render_overhead(data: dict) -> str:
    rows = [[name, 100 * row["traq_stall_fraction"],
             row["log_mb_per_s_opt_4k"], row["log_mb_per_s_base_4k"]]
            for name, row in data.items()]
    return format_table(
        "Section 5.3: recording overhead sources",
        ["workload", "TRAQ stall %", "opt_4k MB/s", "base_4k MB/s"], rows,
        floatfmt="{:.2f}")


def render_litmus(data: dict) -> str:
    rows = []
    for name, per_model in data.items():
        for model, entry in per_model.items():
            rows.append([name, model,
                         ", ".join(map(str, entry["observed"])),
                         "NONE" if not entry["violations"]
                         else str(entry["violations"])])
    return format_table("Litmus matrix (substrate validation)",
                        ["test", "model", "observed", "forbidden seen"],
                        rows)


def render_metrics(data: dict) -> str:
    variants = sorted(next(iter(data.values()))["log_bits"]) if data else []
    rows = []
    for name, row in data.items():
        rows.append([name, 100 * row["ooo_fraction"],
                     row["traq_occupancy_mean"], row["traq_occupancy_p95"]]
                    + [row["log_bits"][variant] / 1024
                       for variant in variants])
    return format_table(
        "Metrics snapshot: OoO fraction, TRAQ occupancy and log sizes "
        "(from the obs registry)",
        ["workload", "ooo %", "traq mean", "traq p95"]
        + [f"{v} Kbits" for v in variants], rows, floatfmt="{:.2f}")


def render_sweep_summary(snapshot) -> str:
    """One-table summary of a parallel prefetch sweep, from the ``sweep.*``
    counters a :class:`~repro.harness.parallel_runner.ParallelRunner`
    exports into its metrics registry."""
    values = snapshot.to_dict()
    rows = []
    for label, name in (
            ("shards total", "sweep.shards_total"),
            ("cache hits", "sweep.cache_hits"),
            ("executed", "sweep.shards_run"),
            ("retried", "sweep.retried"),
            ("timeouts", "sweep.timeouts"),
            ("worker jobs", "sweep.jobs"),
            ("wall seconds", "sweep.wall_seconds"),
            ("shard seconds (mean)", "sweep.shard_seconds.mean"),
            ("shard seconds (max)", "sweep.shard_seconds.max"),
            ("worker instructions", "sweep.worker.instructions"),
            ("worker cycles", "sweep.worker.cycles"),
    ):
        if name in values:
            rows.append([label, values[name]])
    return format_table("Sweep summary (parallel runner)",
                        ["quantity", "value"], rows, floatfmt="{:.2f}")


#: The renderer of each experiment :data:`repro.harness.figures.EXPERIMENTS`
#: computes, by the same name.
RENDERERS = {
    "table1": render_table1,
    "fig1": render_fig1,
    "fig9": render_fig9,
    "fig10": render_fig10,
    "fig11": render_fig11,
    "fig12": render_fig12,
    "fig13": render_fig13,
    "fig14": render_fig14,
    "baselines": render_baselines,
    "overhead": render_overhead,
    "litmus": render_litmus,
    "metrics": render_metrics,
}


def render_all(results: dict) -> str:
    """Render every computed experiment present in ``results``."""
    parts = [RENDERERS[key](value) for key, value in results.items()
             if key in RENDERERS]
    return "\n".join(parts)
