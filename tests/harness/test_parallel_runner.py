"""Tests for the sweep runner and the persistent result cache.

Covers the cache lifecycle (hit / miss / invalidation / corruption /
resume-after-kill), the worker-pool failure handling (retry-once,
per-shard timeouts, exhausted retries), the stability of the cache key
across interpreter runs, and the CLI plumbing that threads
``--jobs/--cache-dir/--no-cache`` through ``repro.tools figures``,
including the default ``.repro_cache/results.sqlite`` cache.
"""

import hashlib
import json
import logging
import os
import re
import subprocess
import sys
import time

import pytest

from repro.common.config import (ConsistencyModel, MachineConfig,
                                 RecorderConfig, RecorderMode)
from repro.common.errors import LogFormatError, WorkloadError
from repro.common.hashing import stable_digest
from repro.harness import ExperimentRunner
from repro.harness import runner as runner_module
from repro.harness.cachestore import CacheBackendError
from repro.harness.parallel_runner import (
    CODE_SALT,
    ResultCache,
    SweepError,
    cache_key,
)
from repro.harness.runner import VARIANTS, RunKey, build_workload, execute_run
from repro.sim.machine import Machine, RunResult

RC = ConsistencyModel.RC
SC = ConsistencyModel.SC
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


def edit_entry(cache, key, edit=None, *, redigest=False) -> dict:
    """The parsed JSON header of ``key``'s stored entry (TINY_VARIANTS).

    With ``edit``, the entry is rewritten after ``edit(header, payload)``
    changed the header dict and the payload bytearray in place; with
    ``redigest`` the header then gets the new payload's length and digest.
    """
    header, payload = read_entry(cache, key).split(b"\n", 1)
    header, payload = json.loads(header), bytearray(payload)
    if edit is not None:
        edit(header, payload)
        if redigest:
            header["payload_bytes"] = len(payload)
            header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        rewrite_entry(cache, key, json.dumps(header).encode() + b"\n" +
                      bytes(payload))
    return header


def sweep_runner(jobs=1, cache=None, **kwargs) -> ExperimentRunner:
    """A runner over TINY_VARIANTS whose sweeps use ``cache``."""
    runner = ExperimentRunner(seed=1, scale=0.05, jobs=jobs,
                              variants=TINY_VARIANTS, **kwargs)
    runner.cache = cache
    return runner


def sweep(runner, keys, **kwargs) -> dict:
    """Prefetch ``keys`` and return their results by key."""
    runner.prefetch(keys, **kwargs)
    return {key: runner.result(key) for key in keys}


# Fault-injecting stand-ins for execute_run.  Pool workers are forked
# from the test process, so they see the patched module attribute too;
# cross-process state (has a shard failed yet?) lives in marker files.

def fails_once(marker):
    def run(key, variants=None, *, tracer=None):
        if not marker.exists():
            marker.touch()
            raise RuntimeError("injected fault")
        return execute_run(key, variants, tracer=tracer)
    return run


def always_fails(key, variants=None, *, tracer=None):
    raise RuntimeError("permanent fault")


def slow_first_fft(marker):
    def run(key, variants=None, *, tracer=None):
        if key.workload == "fft" and not marker.exists():
            marker.touch()
            time.sleep(1.0)
        return execute_run(key, variants, tracer=tracer)
    return run


def always_slow(key, variants=None, *, tracer=None):
    time.sleep(1.0)
    return execute_run(key, variants, tracer=tracer)


@pytest.fixture
def sweep_lines():
    """Lines logged to the ``repro.harness.sweep`` logger during a test."""
    lines = []
    handler = logging.Handler()
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("repro.harness.sweep")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    yield lines
    logger.removeHandler(handler)
    logger.setLevel(level)


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

    @pytest.mark.parametrize("variants", [VARIANTS, TINY_VARIANTS],
                             ids=["VARIANTS", "TINY_VARIANTS"])
    def test_equals_the_digest_of_the_whole_description(self, variants):
        """Canonicalizing each variants mapping once keeps every key
        byte-identical to the digest of key, variants and salt."""
        for key in (tiny_key(), tiny_key(workload="radix", cores=8)):
            for salt in (CODE_SALT, CODE_SALT + ":next"):
                expected = stable_digest({"key": key.to_dict(),
                                          "variants": variants,
                                          "salt": salt})
                # The first call fills the memo, the second reads it.
                assert cache_key(key, variants, salt=salt) == expected
                assert cache_key(key, variants, salt=salt) == expected
        assert cache_key(tiny_key(), dict(variants)) == cache_key(
            tiny_key(), variants)

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
        assert sweep_runner(cache=cache).prefetch([key]) == 1
        assert read_entry(cache, key) is not None

    def test_envelope_key_mismatch_is_treated_as_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)
        edit_entry(cache, key,
                   lambda header, payload: header["key"].update(seed=99))
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
        edit_entry(cache, key,
                   lambda header, payload: header.update(cache_format=-1))
        with pytest.warns(UserWarning, match="cache format"):
            assert cache.get(key, TINY_VARIANTS) is None


# ------------------------------------------------- cache header and payload

def _recompute(cache, key) -> int:
    """Shards a sweep over ``key`` executes against ``cache``."""
    return sweep_runner(cache=cache).prefetch([key])


class TestCachePayload:
    """A cache entry is a JSON header plus a payload (the program and the
    logs) that a hit checks against its digest and decodes on first
    read."""

    def test_hit_round_trips_every_result_form(self, tmp_path):
        """A hit's wire form is byte-identical to the recorded result's,
        under RC, under SC and TSO with baselines, and with edges."""
        cache = ResultCache(tmp_path / "cache")
        results = {key: execute_run(key, TINY_VARIANTS) for key in (
            tiny_key(), tiny_key(consistency=SC, with_baselines=True),
            tiny_key(consistency=TSO, with_baselines=True))}
        edges_key = tiny_key("lu")
        results[edges_key] = Machine(
            MachineConfig(num_cores=2, seed=1), TINY_VARIANTS).run(
            build_workload("lu", num_threads=2, scale=0.05, seed=1),
            collect_dependence_edges=True)
        assert results[edges_key].dependence_edges["opt_4k"]
        for key, result in results.items():
            cache.put(key, result, TINY_VARIANTS)
        for key, result in results.items():
            restored = cache.get(key, TINY_VARIANTS)
            assert json.dumps(restored.to_dict()) == \
                json.dumps(result.to_dict()), key.describe()
        assert cache.counters()["corrupt"] == 0

    def test_flipped_payload_byte_is_a_digest_mismatch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)

        def flip(header, payload):
            payload[-1] ^= 1
        edit_entry(cache, key, flip)
        with pytest.warns(UserWarning, match="digest.*SHA-256"):
            assert cache.get(key, TINY_VARIANTS) is None
        assert cache.counters()["corrupt.digest"] == 1
        assert cache.corrupt == 1
        assert read_entry(cache, key) is None
        assert _recompute(cache, key) == 1
        assert cache.get(key, TINY_VARIANTS) is not None

    def test_truncated_entry_is_a_decode_error(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)
        rewrite_entry(cache, key, read_entry(cache, key)[:-7])
        with pytest.warns(UserWarning, match="decode.*payload has"):
            assert cache.get(key, TINY_VARIANTS) is None
        assert cache.counters()["corrupt.decode"] == 1
        assert "corrupt.digest" not in cache.counters()
        assert _recompute(cache, key) == 1

    def test_bad_log_with_a_matching_digest_raises_on_first_read(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)

        def bad_first_entry_type(header, payload):
            offset, _ = header["result"]["variants"]["opt_4k"]["logs"][1]
            payload[offset] |= 0xE0     # the unassigned entry type 7
        edit_entry(cache, key, bad_first_entry_type, redigest=True)
        result = cache.get(key, TINY_VARIANTS)
        assert result is not None and cache.corrupt == 0
        assert result.recording_stats("opt_4k").log_bits > 0
        for _ in range(2):  # a failed decode stays deferred
            with pytest.raises(LogFormatError, match=re.escape(
                    "recordings.opt_4k[1].log: bad entry type 7 at bit 0")):
                result.log_entries("opt_4k")

    def test_bad_program_with_a_matching_digest_raises_on_first_read(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)

        def bad_instruction(header, payload):
            offset, length = header["result"]["program"]
            program = json.loads(payload[offset:offset + length])
            program["threads"][1]["instructions"][0] = 5
            # JSON allows trailing blanks: the payload keeps its layout.
            payload[offset:offset + length] = \
                json.dumps(program).encode().ljust(length)
        edit_entry(cache, key, bad_instruction, redigest=True)
        result = cache.get(key, TINY_VARIANTS)
        assert result is not None and cache.corrupt == 0
        assert result.total_instructions > 0
        with pytest.raises(LogFormatError, match=re.escape(
                "program.threads[1].instructions[0] must be an object")):
            result.program

    def test_invalid_instruction_in_an_entry_names_its_position(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)
        position = []

        def bad_register(header, payload):
            offset, length = header["result"]["program"]
            program = json.loads(payload[offset:offset + length])
            entries = program["threads"][1]["instructions"]
            position.append(next(index for index, entry in enumerate(entries)
                                 if "dst" in entry))
            entries[position[0]]["dst"] = 99
            # Compact separators leave room for the longer value.
            payload[offset:offset + length] = json.dumps(
                program, separators=(",", ":")).encode().ljust(length)
        edit_entry(cache, key, bad_register, redigest=True)
        result = cache.get(key, TINY_VARIANTS)
        assert result is not None and cache.corrupt == 0
        with pytest.raises(WorkloadError, match=re.escape(
                f"program.threads[1].instructions[{position[0]}]: register "
                f"r99 out of range")):
            result.program

    def test_warm_figures_decode_no_program_and_no_log(self, tmp_path,
                                                       monkeypatch):
        """fig1 and fig9-fig12 read only the header: with the program and
        log decoders made to raise, a warm pass renders the cold tables.
        fig13 still decodes on demand."""
        from repro import storage
        from repro.harness import figures, report
        from repro.sim import serialize

        spec = f"sqlite:{tmp_path}/c.sqlite"
        names = ("fig1", "fig9", "fig10", "fig11", "fig12", "fig13")

        def tables(experiments):
            runner = ExperimentRunner(seed=1, scale=0.05,
                                      workloads=("fft", "radix"),
                                      cache_backend=spec)
            try:
                text = report.render_all({
                    name: figures.EXPERIMENTS[name](runner, 2)
                    for name in experiments})
                return text, runner.cache.counters()
            finally:
                runner.cache.close()

        cold, _ = tables(names)

        def refuse(*args, **kwargs):
            raise AssertionError("a warm figure pass decoded its input")
        with monkeypatch.context() as patched:
            patched.setattr(storage, "program_from_dict", refuse)
            patched.setattr(serialize, "decode_log", refuse)
            warm, counters = tables(names[:-1])
        assert cold.startswith(warm + "\n")    # fig1-fig12 of the cold text
        assert counters == {"hits": 2, "misses": 0, "corrupt": 0,
                            "writes": 0}
        assert tables(names) == (cold, counters)


    @pytest.mark.parametrize("field, where, edit", [
        ("final_memory", 'final_memory["4096"] must be an integer',
         lambda detail: detail["final_memory"].update({"4096": "x"})),
        ("load_trace", "load_trace[0][0] must be an array of 3 integers",
         lambda detail: detail.update(load_trace=[[5]])),
        ("recordings", "recordings.opt_4k[1].stats.log_bits must be an "
         "integer", lambda detail: detail["recordings"]["opt_4k"][1][
             "stats"].update(log_bits="x")),
    ], ids=["final-memory", "load-trace", "stats"])
    def test_bad_detail_with_a_matching_digest_raises_on_first_read(
            self, tmp_path, field, where, edit):
        """The detail part is checked when first read, not at the hit;
        every later read raises again."""
        cache = ResultCache(tmp_path / "cache")
        key = tiny_key()
        cache.put(key, execute_run(key, TINY_VARIANTS), TINY_VARIANTS)

        def bad_detail(header, payload):
            offset, length = header["result"]["detail"]
            detail = json.loads(payload[offset:offset + length])
            edit(detail)
            # Compact separators leave room for the longer value.
            payload[offset:offset + length] = json.dumps(
                detail, separators=(",", ":")).encode().ljust(length)
        edit_entry(cache, key, bad_detail, redigest=True)
        result = cache.get(key, TINY_VARIANTS)
        assert result is not None and cache.corrupt == 0
        assert result.recording_stats("opt_4k").log_bits > 0
        for _ in range(2):
            with pytest.raises(LogFormatError, match=re.escape(where)):
                getattr(result, field)

    def test_warm_figures_parse_no_payload_part(self, tmp_path,
                                                monkeypatch):
        """A warm fig1 and fig9-fig12 pass parses no program, no detail
        part and no log; the four detail fields share one parse."""
        from repro.harness import figures
        from repro.sim import serialize

        spec = f"sqlite:{tmp_path}/c.sqlite"

        def regenerate():
            runner = ExperimentRunner(seed=1, scale=0.05,
                                      workloads=("fft", "radix"),
                                      cache_backend=spec)
            for name in ("fig1", "fig9", "fig10", "fig11", "fig12"):
                figures.EXPERIMENTS[name](runner, 2)
            runner.cache.close()
            return runner

        regenerate()
        calls = []
        for name in ("_program_from_json", "_detail_from_json",
                     "decode_log"):
            original = getattr(serialize, name)
            monkeypatch.setattr(serialize, name, lambda *args, name=name,
                                original=original: (calls.append(name),
                                                    original(*args))[1])
        warm = regenerate()
        assert calls == []
        result = warm.record("fft", cores=2)
        for name in serialize.DETAIL_FIELDS:
            getattr(result, name)
        assert calls == ["_detail_from_json"]
        result.log_entries("opt_4k")
        assert calls[1:] == ["decode_log"] * 2


# ---------------------------------------------------------- parallel runner

class TestParallelRunner:
    KEYS = [tiny_key("fft"), tiny_key("radix"),
            tiny_key("fft", consistency=TSO), tiny_key("lu")]

    def test_pool_matches_serial_execution(self):
        serial = {key: execute_run(key, TINY_VARIANTS) for key in self.KEYS}
        runner = sweep_runner(jobs=2)
        results = sweep(runner, self.KEYS)
        snapshot = runner.sweep_metrics()
        assert snapshot["sweep.executed"] == len(self.KEYS)
        for key in self.KEYS:
            assert results[key].to_dict() == serial[key].to_dict()
        assert snapshot["sweep.shards_total"] == len(self.KEYS)
        assert snapshot["sweep.shards_run"] == len(self.KEYS)
        assert snapshot["sweep.worker.instructions"] == sum(
            serial[key].total_instructions for key in self.KEYS)

    def test_resume_after_simulated_mid_sweep_kill(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # First sweep "dies" after two shards: simulate by only asking for
        # a prefix of the grid (every completed shard is already on disk).
        sweep_runner(jobs=2, cache=cache).prefetch(self.KEYS[:2])
        assert len(cache) == 2
        # The rerun over the full grid executes only the missing shards.
        rerun = sweep_runner(jobs=2, cache=ResultCache(tmp_path / "cache"))
        results = sweep(rerun, self.KEYS)
        snapshot = rerun.sweep_metrics()
        assert snapshot["sweep.executed"] == 2
        assert snapshot["sweep.shards_run"] == 2
        assert set(results) == set(self.KEYS)
        assert snapshot["sweep.cache_hits"] == 2

    def test_failed_shard_is_retried_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_run",
                            fails_once(tmp_path / "failed"))
        runner = sweep_runner(jobs=2)
        results = sweep(runner, [tiny_key()])
        assert results[tiny_key()].cycles > 0
        snapshot = runner.sweep_metrics()
        assert snapshot["sweep.retried"] == 1
        assert snapshot["sweep.shard_seconds.count"] == 2   # two attempts

    def test_serial_path_retries_too(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_run",
                            fails_once(tmp_path / "failed"))
        runner = sweep_runner(jobs=1)
        results = sweep(runner, [tiny_key()])
        assert results[tiny_key()].cycles > 0
        assert runner.sweep_metrics()["sweep.retried"] == 1

    def test_exhausted_retries_raise_sweep_error(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_run", always_fails)
        for jobs in (1, 2):
            runner = sweep_runner(jobs=jobs)
            with pytest.raises(SweepError, match="permanent fault"):
                runner.prefetch([tiny_key()])

    def test_timed_out_shard_is_retried_on_a_fresh_worker(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setattr(runner_module, "execute_run",
                            slow_first_fft(tmp_path / "slow"))
        keys = [tiny_key("fft"), tiny_key("radix")]
        runner = sweep_runner(jobs=2, timeout_s=0.4)
        results = sweep(runner, keys)
        assert set(results) == set(keys)
        snapshot = runner.sweep_metrics()
        assert snapshot["sweep.timeouts"] == 1
        assert snapshot["sweep.retried"] == 1

    def test_timeout_without_retries_fails_the_sweep(self, monkeypatch):
        monkeypatch.setattr(runner_module, "execute_run", always_slow)
        runner = sweep_runner(jobs=2, timeout_s=0.2, retries=0)
        with pytest.raises(SweepError, match="timed out"):
            runner.prefetch([tiny_key()])
        assert runner.sweep_metrics()["sweep.timeouts"] == 1

    def test_duplicate_keys_run_once(self):
        runner = sweep_runner(jobs=1)
        assert runner.prefetch([tiny_key(), tiny_key()]) == 1
        assert runner.sweep_metrics()["sweep.shards_total"] == 1

    def test_progress_lines_are_emitted(self, tmp_path, sweep_lines):
        sweep_runner(cache=ResultCache(tmp_path / "cache")).prefetch(
            [tiny_key()])
        sweep_runner(cache=ResultCache(tmp_path / "cache")).prefetch(
            [tiny_key()])
        assert any("recorded" in line for line in sweep_lines)
        assert any("cache hit" in line for line in sweep_lines)


# ------------------------------------------------------------ sweep telemetry

class TestSweepTelemetry:
    KEYS = [tiny_key("fft"), tiny_key("radix")]

    def test_worker_metrics_fold_into_sweep_registry(self):
        """``--metrics-out`` from a parallel sweep carries every shard's
        metrics, merged deterministically."""
        runner = sweep_runner(jobs=2)
        results = sweep(runner, self.KEYS)
        snapshot = runner.sweep_metrics()
        # The rollup sums per-shard machine metrics exactly.
        expected_cycles = sum(results[key].cycles for key in self.KEYS)
        assert snapshot["sweep.rollup.machine.cycles"] == expected_cycles
        for key in self.KEYS:
            label = key.label()
            assert (snapshot[f"sweep.shard.{label}.cycles"]
                    == results[key].cycles)
            assert snapshot[f"sweep.shard.{label}.trace_events"] == 0

    def test_parallel_rollup_matches_serial_rollup(self):
        pool = sweep_runner(jobs=2)
        pool.prefetch(self.KEYS)
        serial = sweep_runner(jobs=1)
        serial.prefetch(list(reversed(self.KEYS)))  # completion order differs
        rollup = pool.sweep_metrics().subset("sweep.rollup")
        assert rollup
        assert rollup == serial.sweep_metrics().subset("sweep.rollup")

    def test_cached_shards_contribute_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        warm = sweep_runner(cache=cache)
        warm.prefetch(self.KEYS)
        rerun = sweep_runner(cache=ResultCache(tmp_path / "cache"))
        assert rerun.prefetch(self.KEYS) == 0
        # All metrics came from cached results, none from workers.
        snapshot = rerun.sweep_metrics()
        assert snapshot.subset("sweep.rollup") == \
            warm.sweep_metrics().subset("sweep.rollup")
        assert snapshot["sweep.cache_hits"] == len(self.KEYS)
        assert "sweep.shards_run" not in snapshot
        assert not snapshot.subset("sweep.worker")

    def test_traced_worker_result_matches_untraced_cache_entry(self,
                                                               tmp_path):
        """Trace capture must not poison the cache: a traced shard's
        cached entry is byte-identical to an untraced shard's."""
        key = tiny_key()
        plain_cache = ResultCache(tmp_path / "plain")
        sweep_runner(cache=plain_cache).prefetch([key])
        traced_cache = ResultCache(tmp_path / "traced")
        traced = sweep_runner(cache=traced_cache)
        traced.prefetch([key], trace=True)
        plain_entry = edit_entry(plain_cache, key)
        traced_entry = edit_entry(traced_cache, key)
        assert plain_entry["result"] == traced_entry["result"]
        assert plain_entry["payload_sha256"] == traced_entry["payload_sha256"]
        # The trace itself arrived beside the result.
        assert traced.trace_events
        assert (traced.sweep_metrics()[f"sweep.shard.{key.label()}"
                                       ".trace_events"]
                == len(traced.trace_events))

    def test_heartbeat_lines_for_long_pool_waits(self, monkeypatch,
                                                 sweep_lines):
        monkeypatch.setattr(runner_module, "HEARTBEAT_S", 0.2)
        monkeypatch.setattr(runner_module, "execute_run", always_slow)
        sweep_runner(jobs=2).prefetch([tiny_key()])
        assert any("heartbeat" in line for line in sweep_lines)
        assert any("in flight" in line for line in sweep_lines)


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

    def test_serial_sweep_keeps_results_in_process(self, monkeypatch):
        """At ``jobs=1`` a cold sweep hands back the live results: none
        goes through the wire form."""
        def refuse(*args, **kwargs):
            raise AssertionError("a result went through the wire form")
        monkeypatch.setattr(RunResult, "from_dict", staticmethod(refuse))
        runner = sweep_runner(jobs=1)
        assert runner.prefetch([tiny_key("fft"), tiny_key("radix")]) == 2
        assert runner.result(tiny_key("fft")).cycles > 0

    def test_pooled_sweep_splits_each_reply_once(self, tmp_path,
                                                 monkeypatch):
        """At ``jobs=2`` the parent splits each worker's wire form once:
        it encodes no result again for the cache and decodes each one
        only into the cache form, whose entries equal a serial sweep's."""
        keys = [tiny_key("fft"), tiny_key("radix")]
        serial = ResultCache(tmp_path / "serial")
        sweep_runner(jobs=1, cache=serial).prefetch(keys)
        calls = []
        to_dict, from_dict = RunResult.to_dict, RunResult.from_dict
        monkeypatch.setattr(RunResult, "to_dict", lambda self: (
            calls.append("to_dict"), to_dict(self))[1])
        monkeypatch.setattr(RunResult, "from_dict", staticmethod(
            lambda data, payload=None: (calls.append(payload is not None),
                                        from_dict(data, payload))[1]))
        pooled = ResultCache(tmp_path / "pooled")
        runner = sweep_runner(jobs=2, cache=pooled)
        assert runner.prefetch(keys) == 2
        # Pool workers are forked: their to_dict calls land in their own
        # copy of ``calls``.
        assert calls == [True, True]
        for key in keys:
            assert edit_entry(pooled, key)["result"] == \
                edit_entry(serial, key)["result"]
            assert read_entry(pooled, key).split(b"\n", 1)[1] == \
                read_entry(serial, key).split(b"\n", 1)[1]
            assert runner.result(key).recording_stats("opt_4k") == \
                serial.get(key, TINY_VARIANTS).recording_stats("opt_4k")

    def test_record_never_starts_a_pool(self, monkeypatch):
        """``record`` stays in-process whatever the sweep width."""
        from repro.harness import parallel_runner

        def refuse(*args, **kwargs):
            raise AssertionError("record started a process pool")
        monkeypatch.setattr(parallel_runner, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(RunResult, "from_dict", staticmethod(refuse))
        runner = ExperimentRunner(seed=1, scale=0.05, jobs=2,
                                  variants=TINY_VARIANTS)
        assert runner.record("fft", cores=2).cycles > 0


# ------------------------------------------------------------------ the CLI

class TestHarnessCli:
    def test_experiments_form_threads_sweep_flags(self, tmp_path, capsys,
                                                  monkeypatch):
        from repro.tools import main
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        out = tmp_path / "report.txt"
        argv = ["figures", "--experiments", "fig1", "--cores", "2",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out)]
        assert main(argv) == 0
        cold = out.read_text()
        capsys.readouterr()
        assert main(argv) == 0
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
        from repro.tools import main
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        monkeypatch.chdir(tmp_path)
        argv = ["figures", "--experiments", "fig1", "--cores", "2"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert (tmp_path / ".repro_cache" / "results.sqlite").is_file()
        assert "recorded=0" not in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "recorded=0" in warm.err
        assert warm.out == cold.out
        assert "Figure 1" in cold.out

    def test_record_writes_metrics_snapshot(self, tmp_path, capsys):
        """``record`` with only ``--metrics-out`` records and writes the
        run's metrics snapshot."""
        from repro.tools import main
        metrics = tmp_path / "metrics.json"
        assert main(["record", "--workload", "fft", "--cores", "2",
                     "--scale", "0.05", "--metrics-out", str(metrics)]) == 0
        assert "recorded" in capsys.readouterr().out
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
