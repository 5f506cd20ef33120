"""Differential replay matrix: litmus x model, serial vs parallel.

Two families of differential checks:

* Every litmus workload under each consistency model is recorded and
  replayed — the replay must converge (verify bit-exactly) even for the
  relaxed "weird" outcomes, and the recording must survive the sweep wire
  format unchanged.
* A pooled sweep must be observationally identical to the serial path:
  same final memory images, same serialized results and the same
  rendered report tables, byte for byte.
"""

import json

import pytest

from repro.common.config import ConsistencyModel, RecorderConfig, RecorderMode
from repro.harness import ExperimentRunner, fig9_reordered_fractions
from repro.harness.report import render_all
from repro.harness.runner import RunKey, execute_run
from repro.replay import replay_recording
from repro.sim import RunResult
from repro.workloads.litmus import LITMUS_TESTS, run_litmus

MODELS = tuple(ConsistencyModel)

#: Reduced stagger axis: enough timing diversity to surface the relaxed
#: outcomes (0 / cache-warm window / deep stagger) at test-suite cost.
STAGGERS = (0, 60, 480)

RECORD_VARIANT = RecorderConfig(mode=RecorderMode.OPT)


def sweep(keys, *, jobs, trace=False):
    """A runner that prefetched ``keys``, and their results by key."""
    runner = ExperimentRunner(jobs=jobs)
    runner.prefetch(keys, trace=trace)
    return runner, {key: runner.result(key) for key in keys}


@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.value)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_record_replay_converges(name, model):
    """Record every stagger combination and replay each recording."""
    test = LITMUS_TESTS[name]
    result = run_litmus(test, model, stagger_axis=STAGGERS,
                        record_variant=RECORD_VARIANT)
    assert not result.violations, \
        f"{name} under {model.value} produced forbidden {result.violations}"
    assert result.recordings
    for run in result.recordings:
        replayed = replay_recording(run, "litmus")
        assert replayed.verified


@pytest.mark.parametrize("model", MODELS, ids=lambda model: model.value)
@pytest.mark.parametrize("name", sorted(LITMUS_TESTS))
def test_litmus_recording_survives_the_wire_format(name, model):
    """The sweep's JSON wire format preserves litmus runs exactly.

    This is the worker-boundary half of the differential matrix: what a
    pool worker would send back (``to_dict`` -> JSON -> ``from_dict``)
    must have the same final memory image and replay to the same state as
    the in-process original.
    """
    test = LITMUS_TESTS[name]
    result = run_litmus(test, model, stagger_axis=STAGGERS,
                        record_variant=RECORD_VARIANT)
    run = result.recordings[0]
    clone = RunResult.from_dict(json.loads(json.dumps(run.to_dict())))
    assert clone.final_memory == run.final_memory
    assert clone.to_dict() == run.to_dict()
    original = replay_recording(run, "litmus")
    replayed = replay_recording(clone, "litmus")
    assert replayed.verified
    assert replayed.final_memory == original.final_memory
    assert replayed.final_regs == original.final_regs


class TestSerialVsParallel:
    KEYS = [RunKey(workload, 2, 0.1, 1, model, False)
            for workload in ("fft", "radix")
            for model in MODELS]

    @pytest.fixture(scope="class")
    def serial(self):
        return {key: execute_run(key) for key in self.KEYS}

    @pytest.fixture(scope="class")
    def parallel(self):
        return sweep(self.KEYS, jobs=2)[1]

    def test_final_memory_images_identical(self, serial, parallel):
        for key in self.KEYS:
            assert parallel[key].final_memory == serial[key].final_memory, \
                key.describe()

    def test_serialized_results_byte_identical(self, serial, parallel):
        for key in self.KEYS:
            assert (json.dumps(parallel[key].to_dict(), sort_keys=True)
                    == json.dumps(serial[key].to_dict(), sort_keys=True)), \
                key.describe()

    def test_parallel_results_replay_bit_exactly(self, parallel):
        for key in self.KEYS:
            assert replay_recording(parallel[key], "opt_4k").verified


class TestTelemetryIsInvisible:
    """Turning sweep tracing on must not perturb results or rollups."""

    KEYS = [RunKey(workload, 2, 0.1, 1, ConsistencyModel.RC, False)
            for workload in ("fft", "radix")]

    @pytest.fixture(scope="class")
    def traced(self):
        return sweep(self.KEYS, jobs=2, trace=True)

    def test_traced_results_byte_identical_to_serial(self, traced):
        _, results = traced
        for key in self.KEYS:
            serial = execute_run(key)
            assert (json.dumps(results[key].to_dict(), sort_keys=True)
                    == json.dumps(serial.to_dict(), sort_keys=True)), \
                key.describe()

    def test_merged_metrics_match_untraced_sweep(self, traced):
        runner, _ = traced
        plain, _ = sweep(self.KEYS, jobs=1)
        traced_rollup = runner.sweep_metrics().subset("sweep.rollup")
        plain_rollup = plain.sweep_metrics().subset("sweep.rollup")
        # Trace accounting never enters a result, so the metric rollups
        # are identical with tracing on or off — and identical between
        # the pool and the serial (jobs=1) path.
        assert traced_rollup == plain_rollup
        assert not any(name.startswith("sweep.rollup.obs.trace.")
                       for name in traced_rollup)

    def test_trace_events_were_shipped(self, traced):
        runner, _ = traced
        snapshot = runner.sweep_metrics()
        counts = [snapshot[f"sweep.shard.{key.label()}.trace_events"]
                  for key in self.KEYS]
        assert all(counts)
        events = runner.trace_events
        assert len(events) == sum(counts)
        assert all("name" in event and "cycle" in event for event in events)


def test_report_tables_byte_identical_across_paths(tmp_path):
    """The rendered report must not depend on how runs were obtained."""
    workloads = ("fft", "radix")
    serial = ExperimentRunner(seed=1, scale=0.1, workloads=workloads)
    parallel = ExperimentRunner(seed=1, scale=0.1, workloads=workloads,
                                jobs=2, cache_dir=str(tmp_path / "cache"))
    text_serial = render_all(
        {"fig9": fig9_reordered_fractions(serial, cores=2)})
    text_parallel = render_all(
        {"fig9": fig9_reordered_fractions(parallel, cores=2)})
    assert text_parallel == text_serial
    # ...and neither does a warm-cache rerun in a fresh runner.
    warm = ExperimentRunner(seed=1, scale=0.1, workloads=workloads,
                            jobs=2, cache_dir=str(tmp_path / "cache"))
    assert render_all(
        {"fig9": fig9_reordered_fractions(warm, cores=2)}) == text_serial
