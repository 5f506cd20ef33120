"""End-to-end observability tests: traced machine runs, the trace-derived
timeline (vs. the log-derived one), end-of-run metrics, replay tracing and
the divergence-forensics pipeline on a corrupted log."""

import pytest

from repro.common.config import (ConsistencyModel, MachineConfig,
                                 RecorderConfig, RecorderMode)
from repro.common.errors import ReplayDivergenceError
from repro.isa.builder import ThreadBuilder
from repro.isa.program import Program
from repro.obs import Category, Tracer
from repro.obs.inspect import LogSummary
from repro.recorder.logfmt import ReorderedStore
from repro.replay.patcher import (PatchedWrite, group_intervals,
                                  patch_intervals)
from repro.replay.replayer import (Replayer, _verify_memory,
                                   replay_recording)
from repro.sim.machine import Machine
from repro.workloads.litmus import LITMUS_TESTS, litmus_program


def _racy_program(num_threads=3, accesses=40):
    def thread(tid):
        builder = ThreadBuilder(f"t{tid}")
        builder.movi(10, 0)
        for index in range(accesses):
            addr = 0x1000 + ((index * 5 + tid * 7) % 24) * 8
            builder.load(1, offset=addr)
            builder.xor(10, 10, 1)
            builder.xori(2, 10, index)
            builder.store(2, offset=addr)
        builder.store(10, offset=0x5000 + tid * 8)
        return builder.build()

    return Program([thread(t) for t in range(num_threads)], name="racy-obs")


@pytest.fixture(scope="module")
def traced_run():
    tracer = Tracer(capacity=1 << 20)
    machine = Machine(MachineConfig(num_cores=3), {
        "base": RecorderConfig(mode=RecorderMode.BASE),
        "opt": RecorderConfig(mode=RecorderMode.OPT),
    })
    result = machine.run(_racy_program(), capture_load_trace=True,
                         tracer=tracer)
    return result, tracer


class TestTracedRun:
    def test_every_category_emits(self, traced_run):
        _result, tracer = traced_run
        seen = set(tracer.counts_by_category)
        assert {Category.CORE, Category.CACHE, Category.COHERENCE,
                Category.TRAQ, Category.RECORDER} <= seen

    def test_untraced_run_is_identical(self, traced_run):
        traced, _tracer = traced_run
        machine = Machine(MachineConfig(num_cores=3), {
            "base": RecorderConfig(mode=RecorderMode.BASE),
            "opt": RecorderConfig(mode=RecorderMode.OPT),
        })
        plain = machine.run(_racy_program(), capture_load_trace=True)
        assert plain.final_memory == traced.final_memory
        assert plain.cycles == traced.cycles
        for variant in ("base", "opt"):
            assert ([output.entries
                     for output in plain.recordings[variant]]
                    == [output.entries
                        for output in traced.recordings[variant]])

    def test_perform_events_match_core_counts(self, traced_run):
        result, tracer = traced_run
        for core in result.cores:
            performs = tracer.events(core_id=core.core_id,
                                     category=Category.CORE)
            performed = [e for e in performs if e.name == "InstrPerform"]
            assert len(performed) == core.mem_instructions

    def test_chunk_cuts_match_recorder_frames(self, traced_run):
        result, tracer = traced_run
        cuts = [e for e in tracer.events(category=Category.RECORDER)
                if e.name == "ChunkCut"]
        for variant in ("base", "opt"):
            frames = result.recording_stats(variant).frames
            assert sum(1 for e in cuts if e.variant == variant) == frames

    def test_metrics_snapshot_consistent(self, traced_run):
        result, tracer = traced_run
        snap = result.metrics
        assert snap["machine.cycles"] == result.cycles
        assert snap["machine.instructions"] == result.total_instructions
        assert snap["bus.committed"] == result.bus_transactions
        for variant in ("base", "opt"):
            stats = result.recording_stats(variant)
            assert snap[f"recorder.{variant}.log_bits"] == stats.log_bits
            assert (snap[f"recorder.{variant}.frames"] == stats.frames)
        for core in result.cores:
            prefix = f"core{core.core_id}"
            assert snap[f"{prefix}.instructions"] == core.instructions
            assert (snap[f"traq{core.core_id}.occupancy.count"]
                    == core.traq_occupancy.count)
        assert snap["obs.trace.emitted"] == tracer.emitted

    def test_untraced_metrics_have_no_trace_keys(self):
        machine = Machine(MachineConfig(num_cores=2))
        result = machine.run(_racy_program(num_threads=2, accesses=8))
        assert result.metrics is not None
        assert "obs.trace.emitted" not in result.metrics


def _assert_cuts_match_the_log(result, tracer, variant):
    """Each ``ChunkCut`` event of ``variant`` names a chunk that spans, in
    the replayer's interval bounds, from the core's previous cut to the
    event's cycle; the log summary's spans agree."""
    replayer = Replayer.of(result, variant)
    cuts = [event for event in tracer.events(category=Category.RECORDER)
            if event.name == "ChunkCut" and event.variant == variant]
    assert len(cuts) == len(replayer.intervals) > 0
    spans: list[list[tuple[int, int]]] = [[] for _ in result.cores]
    for event in cuts:
        core = spans[event.core_id]
        span = (core[-1][1] if core else 0, event.cycle)
        assert replayer.interval_bounds(event.core_id, event.cisn) == span
        core.append(span)
    summary = LogSummary.of(result.log_entries(variant),
                            result.recorder_config(variant))
    assert summary.spans == spans


class TestTimelineFromTrace:
    def test_two_core_litmus_timeline_matches_log(self):
        """The trace bus's chunk cuts of a 2-core litmus run must equal
        the interval spans of the recorded log."""
        program = litmus_program(LITMUS_TESTS["MP"], (0, 0))
        tracer = Tracer(capacity=1 << 18)
        from dataclasses import replace
        config = replace(MachineConfig(num_cores=2),
                         consistency=ConsistencyModel.RC)
        machine = Machine(config, {
            "opt": RecorderConfig(mode=RecorderMode.OPT),
        })
        result = machine.run(program, tracer=tracer)
        _assert_cuts_match_the_log(result, tracer, "opt")

    def test_racy_timeline_matches_log(self, traced_run):
        result, tracer = traced_run
        for variant in ("base", "opt"):
            _assert_cuts_match_the_log(result, tracer, variant)


class TestReplayTracing:
    def test_replay_emits_step_events(self, traced_run):
        result, _record_tracer = traced_run
        tracer = Tracer(capacity=1 << 18)
        replay = replay_recording(result, "opt", tracer=tracer)
        assert replay.verified
        steps = [e for e in tracer.events(category=Category.REPLAY)
                 if e.name == "ReplayStep"]
        assert len(steps) == replay.counts.intervals
        # Per core, steps come in CISN order.
        for core in result.cores:
            cisns = [e.cisn for e in steps if e.core_id == core.core_id]
            assert cisns == sorted(cisns)


class TestForensicsOnCorruptedLog:
    def _corruption_candidates(self, result, variant):
        outputs = result.recordings[variant]
        for core_id, output in enumerate(outputs):
            for index, entry in enumerate(output.entries):
                if isinstance(entry, ReorderedStore):
                    yield core_id, index, entry

    def test_corrupted_chunk_is_attributed(self, traced_run):
        """Satellite acceptance: flip one reordered store inside one chunk;
        the divergence report must name that core, the chunk the patched
        write replays in, and the store's address."""
        result, _tracer = traced_run
        variant = "base"
        outputs = result.recordings[variant]
        attributed = False
        for core_id, index, entry in self._corruption_candidates(result,
                                                                 variant):
            logs = [list(output.entries) for output in outputs]
            bad = ReorderedStore(entry.addr, entry.value ^ 0xDEAD,
                                 entry.offset)
            logs[core_id][index] = bad

            # Ground truth via the patcher: which chunk does the corrupted
            # write replay in?
            patched = group_intervals(core_id, list(logs[core_id]))
            patch_intervals(patched)
            target_cisns = {
                interval.cisn for interval in patched
                if any(isinstance(e, PatchedWrite) and e.addr == bad.addr
                       and e.value == bad.value
                       for e in interval.entries)}

            replayer = Replayer(result.program, logs, variant=variant)
            memory, _contexts, _counts = replayer.replay()
            try:
                _verify_memory(memory, result.final_memory, replayer)
            except ReplayDivergenceError as error:
                report = error.report
                assert report is not None
                assert report.kind == "memory"
                if report.addr != bad.addr:
                    continue  # corruption cascaded through a later load
                assert report.core_id == core_id
                assert report.chunk in target_cisns
                assert report.observed == bad.value
                assert report.interval_end is not None
                attributed = True
                break
        if not attributed:
            pytest.skip("no isolated reordered store in this recording")

    def test_report_quotes_trace_history_when_given(self, traced_run):
        result, tracer = traced_run
        variant = "base"
        for core_id, index, entry in self._corruption_candidates(result,
                                                                 variant):
            logs = [list(output.entries)
                    for output in result.recordings[variant]]
            logs[core_id][index] = ReorderedStore(entry.addr,
                                                  entry.value ^ 0xDEAD,
                                                  entry.offset)
            replayer = Replayer(result.program, logs, variant=variant,
                                tracer=tracer)
            memory, _contexts, _counts = replayer.replay()
            try:
                _verify_memory(memory, result.final_memory, replayer)
            except ReplayDivergenceError as error:
                report = error.report
                if report.core_id is None:
                    continue
                assert report.recent_events
                assert all(e.core_id == report.core_id
                           for e in report.recent_events)
                return
        pytest.skip("every corruption was overwritten before verification")
