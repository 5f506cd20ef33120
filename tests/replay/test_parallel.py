"""Tests for DAG-ordered parallel replay."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import MachineConfig, RecorderConfig, RecorderMode
from dataclasses import replace

from repro.common.errors import (ConfigError, LogFormatError,
                                 ReplayDivergenceError)
from repro.replay import Replayer, replay_recording
from repro.replay.parallel import parallel_replay_recording
from repro.sim import Machine
from repro.workloads import build_workload, random_program

VARIANTS = {
    "opt_inf": RecorderConfig(mode=RecorderMode.OPT),
    "opt_256": RecorderConfig(mode=RecorderMode.OPT,
                              max_interval_instructions=256),
    "base_256": RecorderConfig(mode=RecorderMode.BASE,
                               max_interval_instructions=256),
}


@pytest.fixture(scope="module")
def recording():
    program = build_workload("ocean", num_threads=4, scale=0.4, seed=2)
    machine = Machine(MachineConfig(num_cores=4), VARIANTS)
    return machine.run(program, collect_dependence_edges=True)


class TestParallelReplay:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_verifies_bit_exact(self, recording, variant):
        result = parallel_replay_recording(recording, variant)
        assert result.verified
        assert result.edges > 0

    def test_counts_match_sequential(self, recording):
        sequential = replay_recording(recording, "opt_256")
        parallel = parallel_replay_recording(recording, "opt_256")
        assert parallel.counts.instructions == \
            sequential.counts.instructions
        assert parallel.counts.injected_loads == \
            sequential.counts.injected_loads
        assert parallel.counts.intervals == sequential.counts.intervals

    def test_speedup_bounds(self, recording):
        result = parallel_replay_recording(recording, "opt_256")
        cores = len(recording.cores)
        assert 1.0 <= result.speedup <= cores + 1e-9
        assert result.makespan_cycles <= result.sequential_cycles

    def test_smaller_intervals_expose_more_parallelism(self, recording):
        """The reason Karma/Cyrus cap interval sizes (Section 5.1)."""
        coarse = parallel_replay_recording(recording, "opt_inf")
        fine = parallel_replay_recording(recording, "opt_256")
        assert fine.speedup >= coarse.speedup * 0.9

    def test_requires_edges(self):
        program = random_program(2, 20, seed=5)
        machine = Machine(MachineConfig(num_cores=2), VARIANTS)
        result = machine.run(program)  # no collect_dependence_edges
        with pytest.raises(LogFormatError):
            parallel_replay_recording(result, "opt_inf")

    def test_cycle_detection(self, recording):
        from repro.recorder.ordering import IntervalEdge
        edges = list(recording.dependence_edges["opt_256"])
        # Fabricate a 2-cycle between the first intervals of cores 0 and 1.
        edges.append(IntervalEdge(0, 0, 1, 0))
        edges.append(IntervalEdge(1, 0, 0, 0))
        cyclic = replace(recording, dependence_edges={"opt_256": edges})
        with pytest.raises(LogFormatError, match="cycle"):
            parallel_replay_recording(cyclic, "opt_256")

    def test_divergence_report_names_the_culprit_chunk(self, recording):
        """A parallel divergence carries the same forensics as a
        sequential one: culprit core and chunk, its recorded cycles, its
        happens-before slice and a ready-to-run inspect command."""
        memory, _contexts, _counts = Replayer.of(recording,
                                                 "opt_256").replay()
        addr = min(memory.writers)
        final_memory = dict(recording.final_memory)
        final_memory[addr] = final_memory.get(addr, 0) ^ 1
        tampered = replace(recording, final_memory=final_memory)
        with pytest.raises(ReplayDivergenceError) as parallel:
            parallel_replay_recording(tampered, "opt_256")
        with pytest.raises(ReplayDivergenceError) as sequential:
            replay_recording(tampered, "opt_256")
        report = parallel.value.report
        assert report.kind == "memory" and report.addr == addr
        assert (report.core_id, report.chunk) == memory.writers[addr]
        assert (report.core_id, report.chunk) == (
            sequential.value.report.core_id, sequential.value.report.chunk)
        assert report.interval_start is not None
        assert report.interval_end is not None
        assert report.hb_slice.source == "edges"
        assert (f"--state-at {report.core_id}:{report.chunk}"
                in report.inspect_hint)

    def test_directory_mode_rejects_edge_collection(self):
        from dataclasses import replace
        from repro.common.config import CoherenceProtocol
        config = replace(MachineConfig(num_cores=2),
                         protocol=CoherenceProtocol.DIRECTORY)
        machine = Machine(config, VARIANTS)
        program = random_program(2, 20, seed=5)
        with pytest.raises(ConfigError):
            machine.run(program, collect_dependence_edges=True)


class TestParallelDeterminismProperty:
    @pytest.mark.parametrize("seed", range(6))
    def test_racy_random_programs(self, seed):
        program = random_program(4, 50, seed=seed + 200, sharing=0.8,
                                 lock_probability=0.15)
        machine = Machine(MachineConfig(num_cores=4), VARIANTS)
        recording = machine.run(program, collect_dependence_edges=True)
        for variant in VARIANTS:
            parallel_replay_recording(recording, variant)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.data_too_large])
    @given(seed=st.integers(min_value=0, max_value=50_000),
           sharing=st.floats(min_value=0.0, max_value=1.0))
    def test_parallel_determinism_property(self, seed, sharing):
        program = random_program(3, 35, seed=seed, sharing=sharing)
        machine = Machine(MachineConfig(num_cores=3), VARIANTS)
        recording = machine.run(program, collect_dependence_edges=True)
        for variant in VARIANTS:
            parallel_replay_recording(recording, variant)
