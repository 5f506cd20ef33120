"""Experiment harness: regenerates every table and figure of Section 5."""

from .figures import (
    baseline_log_comparison,
    fig1_ooo_fractions,
    fig9_reordered_fractions,
    fig10_inorder_blocks,
    fig11_log_sizes,
    fig12_traq_utilization,
    fig13_replay_times,
    fig14_scalability,
    recording_overhead,
    required_runs,
    table1_parameters,
)
from .parallel_runner import (
    ResultCache,
    ShardPool,
    SweepError,
    cache_key,
)
from .report import format_table, render_all, render_sweep_summary
from .runner import (
    VARIANT_ORDER,
    VARIANTS,
    ExperimentRunner,
    RunKey,
    default_scale,
    execute_run,
)

__all__ = [
    "baseline_log_comparison",
    "fig1_ooo_fractions",
    "fig9_reordered_fractions",
    "fig10_inorder_blocks",
    "fig11_log_sizes",
    "fig12_traq_utilization",
    "fig13_replay_times",
    "fig14_scalability",
    "recording_overhead",
    "table1_parameters",
    "required_runs",
    "format_table",
    "render_all",
    "render_sweep_summary",
    "ResultCache",
    "ShardPool",
    "SweepError",
    "cache_key",
    "VARIANT_ORDER",
    "VARIANTS",
    "ExperimentRunner",
    "RunKey",
    "default_scale",
    "execute_run",
]
