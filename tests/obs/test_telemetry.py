"""Unit tests for a sweep's merged metrics and its progress lines.

Covers the rollup rules and determinism of
:func:`~repro.obs.metrics.rollup_snapshots`, the ``sweep.rollup.*`` and
``sweep.shard.<label>.*`` keys
:func:`~repro.harness.runner.fold_shard_metrics` registers, that a
malformed cached snapshot never reaches a rollup, and the
progress/heartbeat/ETA tracker with an injected clock.
"""

import json

import pytest

from repro.common.config import ConsistencyModel, RecorderConfig, RecorderMode
from repro.harness.parallel_runner import ResultCache, cache_key
from repro.harness.runner import (ExperimentRunner, RunKey, SweepProgress,
                                  execute_run, fold_shard_metrics)
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, rollup_snapshots

TINY_VARIANTS = {"opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                                          max_interval_instructions=4096)}


def _trace_event(cycle=1, name="TraqEnqueue"):
    return {"cycle": cycle, "core": 0, "category": "traq",
            "severity": "DEBUG", "name": name, "track": "traq0"}


def _sweep_over_cached_metric(tmp_path, value):
    """Sweep one shard whose cached result has ``machine.cycles`` set to
    ``value``: the sweep's metrics snapshot and the shard's result."""
    key = RunKey("fft", 2, 0.05, 1, ConsistencyModel.RC, False)
    cache = ResultCache(tmp_path / "cache")
    cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)
    address = cache_key(key, TINY_VARIANTS)
    header, payload = cache.store.get(address).split(b"\n", 1)
    header = json.loads(header)
    header["result"]["metrics"]["machine.cycles"] = value
    cache.store.delete(address)
    cache.store.put(address, json.dumps(header).encode() + b"\n" + payload)
    runner = ExperimentRunner(seed=1, scale=0.05, variants=TINY_VARIANTS)
    runner.cache = cache
    with pytest.warns(UserWarning, match=r"schema.*metrics\[\"machine"):
        assert runner.prefetch([key]) == 1
    return runner.sweep_metrics(), runner.result(key)


def _folded(metrics, traces=None):
    registry = MetricsRegistry()
    fold_shard_metrics(registry, metrics, traces or {})
    return registry.snapshot()


class TestAggregatorIngestion:
    """What a sweep takes from each shard: its snapshot and its trace."""

    def test_accepts_snapshot_and_plain_dict(self):
        rollup = rollup_snapshots({"a": MetricsSnapshot({"machine.cycles": 5}),
                                   "b": {"machine.cycles": 7}})
        assert rollup == {"machine.cycles": 12}

    def test_payload_trace_and_stats_are_kept(self):
        snapshot = _folded({"a": {"x": 1}, "b": {"x": 2}},
                           {"a": [_trace_event(1), _trace_event(2)]})
        assert snapshot["sweep.shard.a.trace_events"] == 2
        assert snapshot["sweep.shard.b.trace_events"] == 0
        # Trace accounting never enters the merged metrics.
        assert snapshot["sweep.rollup.x"] == 3

    def test_empty_trace_is_fine(self):
        snapshot = _folded({"a": {"x": 1}}, {"a": []})
        assert snapshot["sweep.shard.a.trace_events"] == 0

    def test_malformed_metrics_quarantined(self, tmp_path):
        """A cached snapshot with a non-number in it is a corrupt cache
        entry: quarantined and recorded again, never merged."""
        snapshot, result = _sweep_over_cached_metric(tmp_path, [1, 2])
        assert snapshot["sweep.cache.corrupt.schema"] == 1
        assert snapshot["sweep.rollup.machine.cycles"] == result.cycles

    def test_bool_metric_values_are_rejected(self, tmp_path):
        snapshot, result = _sweep_over_cached_metric(tmp_path, True)
        assert snapshot["sweep.cache.corrupt.schema"] == 1
        assert snapshot["sweep.rollup.machine.cycles"] == result.cycles


class TestRollup:
    def test_suffix_rules(self):
        rollup = rollup_snapshots({
            "a": {"hits": 10, "occupancy.count": 4, "occupancy.mean": 2.0,
                  "occupancy.min": 1.0, "occupancy.max": 5.0,
                  "occupancy.stddev": 0.5, "occupancy.p95": 4.0,
                  "rate": 2.0},
            "b": {"hits": 5, "occupancy.count": 12, "occupancy.mean": 4.0,
                  "occupancy.min": 0.5, "occupancy.max": 9.0,
                  "occupancy.stddev": 1.5, "occupancy.p95": 8.0,
                  "rate": 4.0}})
        assert rollup["hits"] == 15                       # int: sum
        assert rollup["occupancy.count"] == 16            # .count: sum
        assert rollup["occupancy.min"] == 0.5             # .min
        assert rollup["occupancy.max"] == 9.0             # .max
        # .mean: weighted by sibling .count -> (2*4 + 4*12) / 16
        assert rollup["occupancy.mean"] == (2.0 * 4 + 4.0 * 12) / 16
        assert rollup["rate"] == 3.0                      # float: average
        # Order-sensitive keys are dropped, not merged wrongly.
        assert "occupancy.stddev" not in rollup
        assert "occupancy.p95" not in rollup

    def test_rollup_is_ingestion_order_independent(self):
        shards = {"a": {"x": 1, "r": 0.1}, "b": {"x": 2, "r": 0.2},
                  "c": {"x": 4, "r": 0.7}}
        forward = {label: shards[label] for label in sorted(shards)}
        backward = {label: shards[label]
                    for label in sorted(shards, reverse=True)}
        assert rollup_snapshots(forward) == rollup_snapshots(backward)

    def test_string_values_are_skipped(self):
        rollup = rollup_snapshots({"a": {"x": 1, "version": "1.2"}})
        assert "version" not in rollup

    def test_per_shard_summary(self):
        snapshot = _folded({"a": {"machine.cycles": 100,
                                  "machine.instructions": 50}})
        assert snapshot["sweep.shard.a.cycles"] == 100
        assert snapshot["sweep.shard.a.instructions"] == 50
        assert snapshot["sweep.shard.a.trace_events"] == 0


class TestMergeInto:
    def test_registry_keys(self):
        snapshot = _folded(
            {"a": {"machine.cycles": 100, "rate": 2.0, "lat.min": 3},
             "b": {"machine.cycles": 40, "rate": 4.0, "lat.min": 1}},
            {"a": [_trace_event()]})
        assert snapshot["sweep.rollup.machine.cycles"] == 140
        assert snapshot["sweep.rollup.rate"] == 3.0
        assert snapshot["sweep.rollup.lat.min"] == 1
        assert snapshot["sweep.shard.a.cycles"] == 100
        assert snapshot["sweep.shard.b.cycles"] == 40
        assert snapshot["sweep.shard.a.trace_events"] == 1
        assert not any(name.startswith("sweep.telemetry.")
                       for name in snapshot.values)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestSweepProgress:
    def test_recorded_and_cache_hit_lines(self):
        lines = []
        clock = FakeClock()
        progress = SweepProgress(3, emit=lines.append, clock=clock)
        clock.advance(2.0)
        progress.shard_done("fft x2 RC", "run", 2.0)
        progress.shard_done("lu x2 RC", "cache")
        assert lines[0].startswith("[sweep] fft x2 RC: recorded in 2.0s "
                                   "(1/3")
        assert "cache hit (2/3" in lines[1]

    def test_eta_uses_executed_shard_rate(self):
        lines = []
        clock = FakeClock()
        progress = SweepProgress(4, jobs=1, emit=lines.append, clock=clock)
        clock.advance(10.0)
        progress.shard_done("a", "run", 10.0)
        # 1 executed shard in 10s, 3 remaining -> eta 30s.
        assert "eta 30s" in lines[-1]

    def test_cache_hits_do_not_skew_eta(self):
        lines = []
        clock = FakeClock()
        progress = SweepProgress(4, jobs=1, emit=lines.append, clock=clock)
        progress.shard_done("a", "cache")
        # No executed shard yet: no rate, no ETA guess.
        assert "eta" not in lines[-1]

    def test_heartbeat_due_and_not_due(self):
        lines = []
        clock = FakeClock()
        progress = SweepProgress(2, emit=lines.append, heartbeat_s=30.0,
                                 clock=clock)
        clock.advance(10.0)
        assert progress.heartbeat(in_flight=2) is None
        clock.advance(25.0)
        line = progress.heartbeat(in_flight=2)
        assert line is not None
        assert "heartbeat" in line and "2 in flight" in line
        # The emitted line resets the timer.
        assert progress.heartbeat(in_flight=2) is None

    def test_progress_lines_reset_heartbeat_timer(self):
        clock = FakeClock()
        progress = SweepProgress(2, heartbeat_s=30.0, clock=clock)
        clock.advance(29.0)
        progress.shard_done("a", "run", 1.0)
        clock.advance(2.0)
        assert progress.heartbeat(in_flight=1) is None
