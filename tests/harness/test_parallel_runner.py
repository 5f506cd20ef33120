"""Tests for the parallel sharded runner and the persistent result cache.

Covers the cache lifecycle (hit / miss / invalidation / corruption /
resume-after-kill), the worker-pool failure handling (retry-once,
per-shard timeouts, exhausted retries), the stability of the cache key
across interpreter runs, and the CLI plumbing that threads
``--jobs/--cache-dir/--no-cache/--resume`` through the harness,
including the default ``.repro_cache/results.sqlite`` cache.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.common.config import ConsistencyModel, RecorderConfig, RecorderMode
from repro.harness import ExperimentRunner
from repro.harness.cachestore import CacheBackendError
from repro.harness.parallel_runner import (
    CODE_SALT,
    ParallelRunner,
    ResultCache,
    SweepError,
    _execute_shard,
    cache_key,
)
from repro.harness.runner import RunKey, execute_run

RC = ConsistencyModel.RC
TSO = ConsistencyModel.TSO

#: One cheap recorder variant keeps every shard in these tests fast.
TINY_VARIANTS = {"opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                                          max_interval_instructions=4096)}


def tiny_key(workload="fft", cores=2, scale=0.05, seed=1,
             consistency=RC, with_baselines=False):
    return RunKey(workload, cores, scale, seed, consistency, with_baselines)


def read_entry(cache, key) -> bytes | None:
    """The raw stored envelope of ``key`` (TINY_VARIANTS), via the store."""
    return cache.store.get(cache_key(key, TINY_VARIANTS))


def rewrite_entry(cache, key, data: bytes) -> None:
    """Replace the stored envelope of ``key`` (TINY_VARIANTS) with ``data``."""
    address = cache_key(key, TINY_VARIANTS)
    cache.store.delete(address)
    cache.store.put(address, data)


# Worker fakes must live at module level so the process pool can pickle
# them; they key off the payload alone (workers share no state with the
# parent), which is exactly what ``attempt`` is in the payload for.

def _flaky_worker(payload):
    if payload["attempt"] == 0:
        raise RuntimeError("injected fault")
    return _execute_shard(payload)


def _broken_worker(payload):
    raise RuntimeError("permanent fault")


def _slow_first_attempt_worker(payload):
    if payload["attempt"] == 0 and payload["key"]["workload"] == "fft":
        time.sleep(1.0)
    return _execute_shard(payload)


def _always_slow_worker(payload):
    time.sleep(1.0)
    return _execute_shard(payload)


def _corrupt_telemetry_worker(payload):
    reply = _execute_shard(payload)
    reply["telemetry"] = {"format": 999, "trace": "not-a-list"}
    return reply


def _garbage_telemetry_worker(payload):
    reply = _execute_shard(payload)
    reply["telemetry"] = "torn payload"
    return reply


# ---------------------------------------------------------------- cache key

class TestCacheKey:
    def test_depends_on_every_key_field(self):
        base = tiny_key()
        others = [tiny_key(workload="radix"), tiny_key(cores=4),
                  tiny_key(scale=0.1), tiny_key(seed=2),
                  tiny_key(consistency=TSO), tiny_key(with_baselines=True)]
        digests = {cache_key(key, TINY_VARIANTS) for key in [base] + others}
        assert len(digests) == len(others) + 1

    def test_depends_on_variants_and_salt(self):
        key = tiny_key()
        assert cache_key(key, TINY_VARIANTS) != cache_key(key)
        assert cache_key(key, TINY_VARIANTS) != \
            cache_key(key, TINY_VARIANTS, salt=CODE_SALT + ":next")

    def test_stable_across_interpreter_runs(self):
        """Regression: the digest must not depend on ``PYTHONHASHSEED``.

        A key built from ``hash()``/``repr()`` would differ between
        interpreter runs, silently turning every warm cache into a miss;
        compute the digest in fresh subprocesses with adversarial hash
        seeds and require it to match this process exactly.
        """
        key = tiny_key()
        expected = cache_key(key, TINY_VARIANTS)
        script = (
            "import sys\n"
            "from repro.common.config import ConsistencyModel, "
            "RecorderConfig, RecorderMode\n"
            "from repro.harness.parallel_runner import cache_key\n"
            "from repro.harness.runner import RunKey\n"
            "key = RunKey('fft', 2, 0.05, 1, ConsistencyModel.RC, False)\n"
            "variants = {'opt_4k': RecorderConfig(mode=RecorderMode.OPT, "
            "max_interval_instructions=4096)}\n"
            "sys.stdout.write(cache_key(key, variants))\n")
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(_src_dir()), env.get("PYTHONPATH", "")]))
            digest = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout.strip()
            assert digest == expected, f"PYTHONHASHSEED={hash_seed}"


def _src_dir():
    import repro
    return os.path.dirname(os.path.dirname(repro.__file__))


# ------------------------------------------------------------- result cache

class TestResultCache:
    def test_miss_then_hit_round_trips_the_result(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        assert cache.get(key, TINY_VARIANTS) is None
        result = execute_run(key, TINY_VARIANTS)
        cache.put(key, result, TINY_VARIANTS)
        restored = cache.get(key, TINY_VARIANTS)
        assert restored is not None
        assert restored.to_dict() == result.to_dict()
        assert cache.counters() == {"hits": 1, "misses": 1, "corrupt": 0,
                                    "writes": 1}
        assert len(cache) == 1

    def test_different_configs_never_collide(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = tiny_key()
        result = execute_run(first, TINY_VARIANTS)
        cache.put(first, result, TINY_VARIANTS)
        # A changed scale, seed or variant set is a different address: the
        # stale entry is invisible, not wrongly reused.
        assert cache.get(tiny_key(scale=0.06), TINY_VARIANTS) is None
        assert cache.get(tiny_key(seed=2), TINY_VARIANTS) is None
        assert cache.get(first) is None  # default VARIANTS, not TINY

    def test_corrupt_entry_warns_quarantines_and_recomputes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)
        rewrite_entry(cache, key, b"{ not json")
        with pytest.warns(UserWarning, match="corrupt result-cache entry"):
            assert cache.get(key, TINY_VARIANTS) is None
        assert cache.corrupt == 1
        # Satellite fix: the quarantine is attributed to its reason, so
        # telemetry can tell a truncated entry from a digest collision.
        assert cache.counters()["corrupt.decode"] == 1
        assert cache.counters()["corrupt"] == 1
        # The corrupt entry is out of the store, never served again.
        assert read_entry(cache, key) is None
        # The sweep recomputes and repopulates transparently.
        runner = ParallelRunner(jobs=1, cache=cache, variants=TINY_VARIANTS)
        runner.run([key])
        assert runner.executed == 1
        assert read_entry(cache, key) is not None

    def test_envelope_key_mismatch_is_treated_as_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)
        envelope = json.loads(read_entry(cache, key))
        envelope["key"]["seed"] = 99
        rewrite_entry(cache, key, json.dumps(envelope).encode())
        with pytest.warns(UserWarning, match="does not match"):
            assert cache.get(key, TINY_VARIANTS) is None
        assert cache.counters()["corrupt.key_mismatch"] == 1
        assert "corrupt.decode" not in cache.counters()

    def test_from_spec_counts_write_races(self, tmp_path):
        cache = ResultCache.from_spec(f"sqlite:{tmp_path}/c.sqlite")
        key = tiny_key()
        result = execute_run(key, TINY_VARIANTS)
        cache.put(key, result, TINY_VARIANTS)
        cache.put(key, result, TINY_VARIANTS)   # loses first-writer race
        counters = cache.counters()
        assert counters["writes"] == 1
        assert counters["write_races"] == 1
        assert cache.get(key, TINY_VARIANTS).to_dict() == result.to_dict()
        cache.close()

    def test_from_spec_rejects_retired_backends(self, tmp_path):
        for spec in (f"dir:{tmp_path}/cache", "http://localhost:8123"):
            with pytest.raises(CacheBackendError, match="sqlite:PATH"):
                ResultCache.from_spec(spec)

    def test_stale_cache_format_is_not_readable(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)
        envelope = json.loads(read_entry(cache, key))
        envelope["cache_format"] = -1
        rewrite_entry(cache, key, json.dumps(envelope).encode())
        with pytest.warns(UserWarning, match="cache format"):
            assert cache.get(key, TINY_VARIANTS) is None


# ---------------------------------------------------------- parallel runner

class TestParallelRunner:
    KEYS = [tiny_key("fft"), tiny_key("radix"),
            tiny_key("fft", consistency=TSO), tiny_key("lu")]

    def test_pool_matches_serial_execution(self):
        serial = {key: execute_run(key, TINY_VARIANTS) for key in self.KEYS}
        runner = ParallelRunner(jobs=2, variants=TINY_VARIANTS)
        results = runner.run(self.KEYS)
        assert runner.executed == len(self.KEYS)
        for key in self.KEYS:
            assert results[key].to_dict() == serial[key].to_dict()
        snapshot = runner.registry.snapshot()
        assert snapshot["sweep.shards_total"] == len(self.KEYS)
        assert snapshot["sweep.shards_run"] == len(self.KEYS)
        assert snapshot["sweep.worker.instructions"] > 0

    def test_resume_after_simulated_mid_sweep_kill(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # First sweep "dies" after two shards: simulate by only asking for
        # a prefix of the grid (every completed shard is already on disk).
        ParallelRunner(jobs=2, cache=cache,
                       variants=TINY_VARIANTS).run(self.KEYS[:2])
        assert len(cache) == 2
        # The rerun over the full grid executes only the missing shards.
        rerun = ParallelRunner(jobs=2, cache=ResultCache(tmp_path / "cache"),
                               variants=TINY_VARIANTS)
        results = rerun.run(self.KEYS)
        assert rerun.executed == 2
        assert {o.source for o in rerun.outcomes} == {"cache", "run"}
        assert set(results) == set(self.KEYS)
        assert rerun.registry.snapshot()["sweep.cache_hits"] == 2

    def test_failed_shard_is_retried_once(self):
        runner = ParallelRunner(jobs=2, variants=TINY_VARIANTS,
                                worker=_flaky_worker)
        results = runner.run([tiny_key()])
        assert results[tiny_key()].cycles > 0
        assert runner.outcomes[0].attempts == 2
        assert runner.registry.snapshot()["sweep.retried"] == 1

    def test_serial_path_retries_too(self):
        runner = ParallelRunner(jobs=1, variants=TINY_VARIANTS,
                                worker=_flaky_worker)
        results = runner.run([tiny_key()])
        assert results[tiny_key()].cycles > 0
        assert runner.registry.snapshot()["sweep.retried"] == 1

    def test_exhausted_retries_raise_sweep_error(self):
        for jobs in (1, 2):
            runner = ParallelRunner(jobs=jobs, variants=TINY_VARIANTS,
                                    worker=_broken_worker)
            with pytest.raises(SweepError, match="permanent fault"):
                runner.run([tiny_key()])

    def test_timed_out_shard_is_retried_on_a_fresh_worker(self):
        keys = [tiny_key("fft"), tiny_key("radix")]
        runner = ParallelRunner(jobs=2, variants=TINY_VARIANTS,
                                timeout_s=0.4,
                                worker=_slow_first_attempt_worker)
        results = runner.run(keys)
        assert set(results) == set(keys)
        snapshot = runner.registry.snapshot()
        assert snapshot["sweep.timeouts"] == 1
        assert snapshot["sweep.retried"] == 1

    def test_timeout_without_retries_fails_the_sweep(self):
        runner = ParallelRunner(jobs=2, variants=TINY_VARIANTS,
                                timeout_s=0.2, retries=0,
                                worker=_always_slow_worker)
        with pytest.raises(SweepError, match="timed out"):
            runner.run([tiny_key()])
        assert runner.registry.snapshot()["sweep.timeouts"] == 1

    def test_duplicate_keys_run_once(self):
        runner = ParallelRunner(jobs=1, variants=TINY_VARIANTS)
        results = runner.run([tiny_key(), tiny_key()])
        assert runner.executed == 1
        assert len(results) == 1

    def test_progress_lines_are_emitted(self, tmp_path):
        lines = []
        runner = ParallelRunner(jobs=1, variants=TINY_VARIANTS,
                                cache=ResultCache(tmp_path / "cache"),
                                progress=lines.append)
        runner.run([tiny_key()])
        runner2 = ParallelRunner(jobs=1, variants=TINY_VARIANTS,
                                 cache=ResultCache(tmp_path / "cache"),
                                 progress=lines.append)
        runner2.run([tiny_key()])
        assert any("recorded" in line for line in lines)
        assert any("cache hit" in line for line in lines)


# ------------------------------------------------------------ sweep telemetry

class TestSweepTelemetry:
    KEYS = [tiny_key("fft"), tiny_key("radix")]

    def test_worker_metrics_fold_into_sweep_registry(self):
        """Satellite fix: ``--metrics-out`` from a parallel sweep carries
        every worker's metrics, merged deterministically."""
        runner = ParallelRunner(jobs=2, variants=TINY_VARIANTS)
        results = runner.run(self.KEYS)
        snapshot = runner.registry.snapshot()
        assert snapshot["sweep.telemetry.shards"] == len(self.KEYS)
        assert snapshot["sweep.telemetry.quarantined"] == 0
        # The rollup sums per-shard machine metrics exactly.
        expected_cycles = sum(results[key].cycles for key in self.KEYS)
        assert snapshot["sweep.rollup.machine.cycles"] == expected_cycles
        for key in self.KEYS:
            label = key.label()
            assert (snapshot[f"sweep.shard.{label}.cycles"]
                    == results[key].cycles)

    def test_parallel_rollup_matches_serial_rollup(self):
        pool = ParallelRunner(jobs=2, variants=TINY_VARIANTS)
        pool.run(self.KEYS)
        serial = ParallelRunner(jobs=1, variants=TINY_VARIANTS)
        serial.run(list(reversed(self.KEYS)))  # completion order differs
        assert pool.aggregator.rollup() == serial.aggregator.rollup()

    def test_cached_shards_contribute_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = ParallelRunner(jobs=1, cache=cache, variants=TINY_VARIANTS)
        warm.run(self.KEYS)
        rerun = ParallelRunner(jobs=1, cache=ResultCache(tmp_path / "cache"),
                               variants=TINY_VARIANTS)
        rerun.run(self.KEYS)
        assert rerun.executed == 0
        # All metrics came from cached results, none from workers.
        assert rerun.aggregator.rollup() == warm.aggregator.rollup()
        assert {shard.source
                for shard in (rerun.aggregator.shard(label)
                              for label in rerun.aggregator.labels())} \
            == {"cache"}

    def test_corrupt_worker_telemetry_is_quarantined_not_fatal(self):
        key = tiny_key()
        runner = ParallelRunner(jobs=1, variants=TINY_VARIANTS,
                                worker=_corrupt_telemetry_worker)
        results = runner.run([key])
        # The sweep still completes with a valid result...
        assert results[key].cycles > 0
        # ...and the bad payload is quarantined with a reason.
        assert runner.aggregator.quarantined
        label, reason = runner.aggregator.quarantined[0]
        assert label == key.label()
        assert "format" in reason
        snapshot = runner.registry.snapshot()
        assert snapshot["sweep.telemetry.quarantined"] == 1
        # The shard's metrics (from the result itself) still merged.
        assert snapshot["sweep.rollup.machine.cycles"] == results[key].cycles

    def test_non_dict_telemetry_payload_is_quarantined(self):
        key = tiny_key()
        runner = ParallelRunner(jobs=1, variants=TINY_VARIANTS,
                                worker=_garbage_telemetry_worker)
        results = runner.run([key])
        assert results[key].cycles > 0
        assert runner.aggregator.quarantined
        assert "not dict" in runner.aggregator.quarantined[0][1]

    def test_traced_worker_result_matches_untraced_cache_entry(self,
                                                               tmp_path):
        """Trace capture must not poison the cache: a traced shard's
        cached entry is byte-identical to an untraced shard's."""
        from repro.obs.telemetry import TelemetryConfig
        key = tiny_key()
        plain_cache = ResultCache(tmp_path / "plain")
        ParallelRunner(jobs=1, cache=plain_cache,
                       variants=TINY_VARIANTS).run([key])
        traced_cache = ResultCache(tmp_path / "traced")
        traced = ParallelRunner(jobs=1, cache=traced_cache,
                                variants=TINY_VARIANTS,
                                telemetry=TelemetryConfig(capture_trace=True))
        traced.run([key])
        plain_entry = json.loads(read_entry(plain_cache, key))
        traced_entry = json.loads(read_entry(traced_cache, key))
        assert plain_entry["result"] == traced_entry["result"]
        # The trace itself arrived through the side channel.
        label = key.label()
        assert traced.aggregator.shard(label).trace
        assert traced.aggregator.shard(label).trace_stats[
            "obs.trace.emitted"] > 0

    def test_heartbeat_lines_for_long_pool_waits(self):
        lines = []
        from repro.obs.telemetry import TelemetryConfig
        runner = ParallelRunner(jobs=2, variants=TINY_VARIANTS,
                                progress=lines.append,
                                telemetry=TelemetryConfig(heartbeat_s=0.2),
                                worker=_always_slow_worker)
        runner.run([tiny_key()])
        assert any("heartbeat" in line for line in lines)
        assert any("in flight" in line for line in lines)


# -------------------------------------------------------- experiment runner

class TestExperimentRunnerIntegration:
    def test_prefetch_populates_memo_and_counts_executions(self, tmp_path):
        runner = ExperimentRunner(seed=1, scale=0.05, jobs=2,
                                  cache_dir=str(tmp_path / "cache"),
                                  variants=TINY_VARIANTS)
        keys = [runner.run_key("fft", cores=2), runner.run_key("radix",
                                                               cores=2)]
        assert runner.prefetch(keys) == 2
        assert runner.prefetch(keys) == 0  # memoized
        assert runner.sweep_metrics() is not None
        first = runner.record("fft", cores=2)
        assert runner.record("fft", cores=2) is first  # identity preserved

    def test_fresh_runner_resumes_from_the_disk_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        warm = ExperimentRunner(seed=1, scale=0.05, cache_dir=cache_dir,
                                variants=TINY_VARIANTS)
        warm.record("fft", cores=2)
        fresh = ExperimentRunner(seed=1, scale=0.05, cache_dir=cache_dir,
                                 variants=TINY_VARIANTS)
        assert fresh.prefetch([fresh.run_key("fft", cores=2)]) == 0
        assert fresh.record("fft", cores=2).cycles == \
            warm.record("fft", cores=2).cycles

    def test_record_without_cache_still_works(self):
        runner = ExperimentRunner(seed=1, scale=0.05,
                                  variants=TINY_VARIANTS)
        assert runner.cache is None
        assert runner.record("fft", cores=2).cycles > 0


# ------------------------------------------------------------------ the CLI

class TestHarnessCli:
    def test_experiments_form_threads_sweep_flags(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.harness.__main__ import main
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        out = tmp_path / "report.txt"
        argv = ["--experiments", "fig1", "--cores", "2", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out)]
        assert main(argv) == 0
        cold = out.read_text()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert out.read_text() == cold  # warm rerun is byte-identical
        # Structured sweep-ready line: everything came from the cache.
        assert "event=sweep.ready" in captured.err
        assert "recorded=0" in captured.err
        assert "Figure 1" in cold

    def test_default_cache_is_repro_cache_results_sqlite(self, tmp_path,
                                                         capsys,
                                                         monkeypatch):
        """With no cache flags, the experiments form caches in
        ``.repro_cache/results.sqlite`` under the working directory, and a
        rerun records nothing and prints the same tables."""
        from repro.harness.__main__ import main
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.chdir(tmp_path)
        argv = ["--experiments", "fig1", "--cores", "2"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert (tmp_path / ".repro_cache" / "results.sqlite").is_file()
        assert "recorded=0" not in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "recorded=0" in warm.err
        assert warm.out == cold.out
        assert "Figure 1" in cold.out

    def test_resume_rejects_no_cache(self, capsys):
        from repro.harness.__main__ import main
        with pytest.raises(SystemExit):
            main(["--experiments", "fig1", "--resume", "--no-cache"])

    def test_run_subcommand_shards_workload_lists(self, tmp_path, capsys):
        from repro.harness.__main__ import main
        assert main(["run", "--workload", "fft,radix", "--cores", "2",
                     "--scale", "0.05", "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        err = capsys.readouterr().err
        assert "workload=fft" in err and "workload=radix" in err
        assert "Sweep summary" in err

    def test_run_subcommand_single_workload_writes_metrics(self, tmp_path,
                                                           capsys):
        from repro.harness.__main__ import main
        metrics = tmp_path / "metrics.json"
        assert main(["run", "--workload", "fft", "--cores", "2",
                     "--scale", "0.05", "--metrics-out", str(metrics)]) == 0
        assert "workload=fft" in capsys.readouterr().err
        assert json.loads(metrics.read_text())

    def test_tools_sweep_renders_grid_table(self, tmp_path, capsys):
        from repro.tools import main
        assert main(["sweep", "--workloads", "fft", "--cores", "2",
                     "--consistency", "RC,TSO", "--scale", "0.05",
                     "--jobs", "2",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "Sweep results" in out and "TSO" in out
        assert "Sweep summary" in out
