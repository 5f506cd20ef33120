"""Unit tests for the interval spans and the ASCII timeline of
``repro.obs.inspect.LogSummary``, including the spans' agreement with the
recorder's ``ChunkCut`` trace events on a real run."""

from repro.common.config import ConsistencyModel, MachineConfig, RecorderConfig
from repro.obs import Category, Tracer
from repro.obs.inspect import LogSummary
from repro.recorder.logfmt import InorderBlock, IntervalFrame
from repro.sim.machine import Machine
from repro.workloads.litmus import LITMUS_TESTS, litmus_program

CONFIG = RecorderConfig()


class TestIntervalSpans:
    def test_spans_chain_from_previous_end(self):
        entries = [
            InorderBlock(size=4), IntervalFrame(cisn=0, timestamp=50),
            InorderBlock(size=2), IntervalFrame(cisn=1, timestamp=90),
            IntervalFrame(cisn=2, timestamp=91),
        ]
        assert LogSummary.of([entries, [InorderBlock(size=1)]],
                             CONFIG).spans == [[(0, 50), (50, 90), (90, 91)],
                                               []]

    def test_no_frames_no_spans(self):
        assert LogSummary.of([[InorderBlock(size=1)]], CONFIG).spans == [[]]


class TestTraceEquivalence:
    def test_log_and_trace_spans_agree_for_a_real_run(self):
        program = litmus_program(LITMUS_TESTS["SB"], staggers=(0, 3))
        config = MachineConfig(num_cores=2,
                               consistency=ConsistencyModel("TSO"))
        tracer = Tracer()
        result = Machine(config).run(program, tracer=tracer)
        # Each ChunkCut closes one interval of its core, which spans from
        # the core's previous cut (cycle 0 for the first).
        from_bus: list[list[tuple[int, int]]] = [[], []]
        for event in tracer.events(category=Category.RECORDER):
            if event.name == "ChunkCut":
                core = from_bus[event.core_id]
                core.append((core[-1][1] if core else 0, event.cycle))
        summary = LogSummary.of(result.log_entries("default"),
                                result.recorder_config("default"))
        assert summary.intervals > 0
        assert summary.spans == from_bus


class TestRendering:
    def test_render_shape(self):
        summary = LogSummary.of(
            [[InorderBlock(size=4), IntervalFrame(cisn=0, timestamp=40),
              IntervalFrame(cisn=1, timestamp=100)],
             [IntervalFrame(cisn=0, timestamp=100)]], CONFIG)
        lines = summary.render_timeline(width=20).splitlines()
        assert "interval timeline (0 .. 100 cycles" in lines[0]
        assert lines[1].startswith("  core 0:")
        assert lines[1].endswith("(2 intervals)")
        assert lines[2].endswith("(1 intervals)")

    def test_render_empty(self):
        assert LogSummary.of([[]], CONFIG).render_timeline() == \
            "(no intervals)\n"
