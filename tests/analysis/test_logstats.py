"""Unit tests for the log profile of ``repro.obs.inspect.LogSummary``: its
counts, distributions and bits over a hand-written log, and the profile
report ``repro.tools inspect DIR --analyze`` prints."""

from repro.common.config import RecorderConfig
from repro.obs.inspect import LogSummary
from repro.recorder.logfmt import (
    Dummy,
    InorderBlock,
    IntervalFrame,
    ReorderedLoad,
    ReorderedRmw,
    ReorderedStore,
    entry_bit_size,
)

CONFIG = RecorderConfig()

# Interval 0 holds 10 + 1 + 3 + 1 + 1 = 16 instructions in 2 blocks,
# interval 1 holds 1 + 5 = 6 in 1 block.
_ENTRIES = [
    InorderBlock(size=10),
    ReorderedLoad(value=7),
    InorderBlock(size=3),
    ReorderedStore(addr=0x40, value=1, offset=2),
    Dummy(),
    IntervalFrame(cisn=0, timestamp=100),
    ReorderedRmw(old_value=1, new_value=2, addr=0x80, offset=1),
    InorderBlock(size=5),
    IntervalFrame(cisn=1, timestamp=180),
]


class TestProfileLog:
    def test_counts_and_instruction_coverage(self):
        summary = LogSummary.of([_ENTRIES], CONFIG)
        assert summary.intervals == 2
        assert summary.entries == len(_ENTRIES)
        assert summary.instructions == 22
        assert summary.kinds == {"InorderBlock": 3, "ReorderedLoad": 1,
                                 "ReorderedStore": 1, "Dummy": 1,
                                 "IntervalFrame": 2, "ReorderedRmw": 1}

    def test_distributions(self):
        summary = LogSummary.of([_ENTRIES], CONFIG)
        assert summary.interval_sizes == [16, 6]
        assert summary.blocks_per_interval == [2, 1]
        assert summary.block_sizes == [10, 3, 5]
        assert summary.store_offsets == [2, 1]

    def test_bits_match_the_encoder_accounting(self):
        for config in (CONFIG, RecorderConfig(cisn_bits=8)):
            summary = LogSummary.of([_ENTRIES], config)
            assert summary.bits == sum(entry_bit_size(entry, config)
                                       for entry in _ENTRIES)
            assert summary.bits == sum(summary.bits_by_type.values())

    def test_empty_log(self):
        summary = LogSummary.of([[]], CONFIG)
        assert summary.intervals == summary.entries == summary.bits == 0
        assert summary.render_profile("empty") == (
            "profile: empty\n"
            "  intervals            : 0\n"
            "  entries              : 0 (0 bits, 0 b/KI)\n"
            "  instructions covered : 0\n"
            "  reordered entries    : 0 loads, 0 stores, 0 RMWs\n")


class TestMergeProfiles:
    """One summary walks every core: its totals add up over the cores."""

    def test_merge_is_additive(self):
        single = LogSummary.of([_ENTRIES], CONFIG)
        double = LogSummary.of([_ENTRIES, _ENTRIES], CONFIG)
        assert double.intervals == 2 * single.intervals
        assert double.bits == 2 * single.bits
        assert double.instructions == 2 * single.instructions
        assert double.block_sizes == 2 * single.block_sizes
        assert double.spans == 2 * single.spans

    def test_merge_of_nothing_is_empty(self):
        summary = LogSummary.of([], CONFIG)
        assert summary.entries == summary.intervals == summary.bits == 0
        assert summary.spans == []


class TestRendering:
    def test_render_profile_mentions_the_headline_numbers(self):
        text = LogSummary.of([_ENTRIES], CONFIG).render_profile("unit")
        assert text.startswith("profile: unit\n")
        assert "  intervals            : 2\n" in text
        assert "  instructions covered : 22\n" in text
        assert ("  interval size        : mean 11.0 instructions "
                "(min 6, max 16)\n") in text
        assert "  blocks per interval  : mean 1.5\n" in text
        assert "  InorderBlock size    : mean 6.0 (min 3, max 10)\n" in text
        assert "  reordered entries    : 1 loads, 1 stores, 1 RMWs\n" in text
        assert "  store patch offsets  : mean 1.50 intervals (max 2)\n" in text
        bit_lines = [line for line in text.splitlines()
                     if line.startswith("  bits in ")]
        assert len(bit_lines) == 6
        assert bit_lines[0].startswith("  bits in ReorderedRmw")
