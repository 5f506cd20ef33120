"""Tests for the log summary behind ``repro.tools inspect DIR``
(``repro.obs.inspect.LogSummary``) on a hand-written log and on a real
Base/Opt recording."""

import pytest

from repro.common.config import MachineConfig, RecorderConfig, RecorderMode
from repro.obs.inspect import LogSummary
from repro.recorder.logfmt import (
    InorderBlock,
    IntervalFrame,
    ReorderedLoad,
    ReorderedRmw,
    ReorderedStore,
    entry_bit_size,
)
from repro.sim import Machine
from repro.workloads import build_workload

CONFIG = RecorderConfig()
REORDERED = ("ReorderedLoad", "ReorderedStore", "ReorderedRmw")


@pytest.fixture(scope="module")
def recording():
    program = build_workload("radiosity", num_threads=4, scale=0.3, seed=5)
    machine = Machine(MachineConfig(num_cores=4), {
        "base": RecorderConfig(mode=RecorderMode.BASE),
        "opt": RecorderConfig(mode=RecorderMode.OPT),
    })
    return machine.run(program)


def _summary(result, variant: str) -> LogSummary:
    return LogSummary.of(result.log_entries(variant),
                         result.recorder_config(variant))


def _reordered(summary: LogSummary) -> int:
    return sum(summary.kinds.get(kind, 0) for kind in REORDERED)


SAMPLE_LOG = [
    InorderBlock(10),
    ReorderedLoad(0xAA),
    InorderBlock(5),
    IntervalFrame(0, 100),
    ReorderedStore(0x40, 7, 1),
    InorderBlock(3),
    ReorderedRmw(1, 2, 0x80, 2),
    IntervalFrame(1, 250),
]


class TestProfile:
    def test_counts(self):
        summary = LogSummary.of([SAMPLE_LOG], CONFIG)
        assert summary.intervals == 2
        assert summary.entries == len(SAMPLE_LOG)
        assert [summary.kinds[kind] for kind in REORDERED] == [1, 1, 1]
        # interval 0: 10 + 1 + 5 = 16; interval 1: 1 + 3 + 1 = 5
        assert summary.interval_sizes == [16, 5]
        assert summary.instructions == 21
        assert summary.store_offsets == [1, 2]

    def test_bits_match_entry_sizes(self):
        summary = LogSummary.of([SAMPLE_LOG], CONFIG)
        assert summary.bits == sum(entry_bit_size(e, CONFIG)
                                   for e in SAMPLE_LOG)
        assert summary.bits_by_type["InorderBlock"] == sum(
            entry_bit_size(e, CONFIG) for e in SAMPLE_LOG
            if isinstance(e, InorderBlock))

    def test_merge(self):
        single = LogSummary.of([SAMPLE_LOG], CONFIG)
        merged = LogSummary.of([SAMPLE_LOG, SAMPLE_LOG], CONFIG)
        assert merged.intervals == 2 * single.intervals
        assert merged.bits == 2 * single.bits
        assert merged.instructions == 2 * single.instructions

    def test_render(self):
        text = LogSummary.of([SAMPLE_LOG], CONFIG).render_profile("sample")
        assert text.startswith("profile: sample\n")
        assert "reordered entries    : 1 loads, 1 stores, 1 RMWs" in text
        assert "bits in InorderBlock" in text

    def test_empty(self):
        text = LogSummary.of([[]], CONFIG).render_profile("empty")
        assert "entries              : 0 (0 bits, 0 b/KI)" in text

    def test_on_real_recording(self, recording):
        summary = _summary(recording, "base")
        assert summary.instructions == recording.total_instructions
        stats = recording.recording_stats("base")
        assert summary.bits == stats.log_bits
        assert _reordered(summary) == stats.reordered_total


class TestTimeline:
    def test_spans(self):
        assert LogSummary.of([SAMPLE_LOG], CONFIG).spans == \
            [[(0, 100), (100, 250)]]

    def test_render(self):
        text = LogSummary.of([SAMPLE_LOG, SAMPLE_LOG],
                             CONFIG).render_timeline()
        assert "core 0" in text and "core 1" in text
        assert text.count("(2 intervals)") == 2

    def test_render_empty(self):
        assert LogSummary.of([[]], CONFIG).render_timeline() == \
            "(no intervals)\n"


class TestDiff:
    def test_base_vs_opt(self, recording):
        """The accesses Opt rescues and the bits it saves, read off the two
        logs, are the difference of the two variants' recorder stats."""
        base, opt = _summary(recording, "base"), _summary(recording, "opt")
        stats_base = recording.recording_stats("base")
        stats_opt = recording.recording_stats("opt")
        rescued = _reordered(base) - _reordered(opt)
        assert rescued >= 0
        assert rescued == (stats_base.reordered_total
                           - stats_opt.reordered_total)
        assert base.bits - opt.bits == (stats_base.log_bits
                                        - stats_opt.log_bits)
