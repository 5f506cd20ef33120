"""Tests for the one-walk log summary behind ``repro.tools inspect DIR``
(``repro.obs.inspect.LogSummary``): its counts against the recorder's own
stats, and one ``|`` per interval boundary in its timeline.

The unit tests of its counts, distributions, spans and rendering are in
``tests/analysis/test_logstats.py``, ``tests/analysis/test_timeline.py``
and ``tests/harness/test_analysis.py``."""

import pytest

from repro.common.config import MachineConfig, RecorderConfig
from repro.harness.runner import VARIANTS
from repro.obs.inspect import LogSummary
from repro.recorder.logfmt import IntervalFrame
from repro.sim.machine import Machine
from repro.workloads import build_workload


class TestCounts:
    @pytest.mark.parametrize("app", ["fft", "radix"])
    def test_counts_equal_the_recorder_stats(self, app):
        """Every count the summary derives from a variant's decoded log is
        one the recorder already kept while recording it."""
        program = build_workload(app, num_threads=4, scale=0.1, seed=1)
        result = Machine(MachineConfig(num_cores=4), VARIANTS).run(program)
        for variant in VARIANTS:
            summary = LogSummary.of(result.log_entries(variant),
                                    result.recorder_config(variant))
            stats = result.recording_stats(variant)
            assert (summary.intervals, summary.bits, summary.bits_by_type,
                    summary.kinds.get("ReorderedLoad", 0),
                    summary.kinds.get("ReorderedStore", 0),
                    summary.kinds.get("ReorderedRmw", 0),
                    summary.kinds.get("InorderBlock", 0),
                    summary.instructions) == (
                stats.frames, stats.log_bits, stats.entry_bits_by_type,
                stats.reordered_loads, stats.reordered_stores,
                stats.reordered_rmws, stats.inorder_blocks,
                stats.instructions_counted), variant


class TestRenderTimeline:
    def test_every_boundary_is_drawn(self):
        """Boundaries at cycles 40 and 100 of 100 land in columns 7 and
        19 of a 20-column row; each keeps its ``|``."""
        summary = LogSummary.of(
            [[IntervalFrame(cisn=0, timestamp=40),
              IntervalFrame(cisn=1, timestamp=100)]], RecorderConfig())
        row = summary.render_timeline(width=20).splitlines()[1]
        assert row == "  core 0: " + "-" * 7 + "|" + "-" * 11 + "|" + \
            "  (2 intervals)"
