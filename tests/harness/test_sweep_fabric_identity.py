"""End-to-end invariants of the sweep fabric (result cache + shard pool).

The guarantee: the fabric is *observationally invisible*.  A sweep's
serialized results must be byte-identical no matter how wide the shard
pool is, whether the cache is a SQLite file or in memory, and whether it
was cold or warm.  Also covers the CLI exit-code-2 contract for a cache
file that cannot be used, in every sweep form.
"""

import json

from repro.common.config import ConsistencyModel, RecorderConfig, RecorderMode
from repro.harness.cachestore import SQLiteStore
from repro.harness.parallel_runner import ResultCache
from repro.harness.runner import ExperimentRunner, RunKey
from repro.sim.serialize import run_result_to_dict

RC = ConsistencyModel.RC
TINY_VARIANTS = {"opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                                          max_interval_instructions=4096)}
GRID = [RunKey("fft", 2, 0.05, 1, RC, False),
        RunKey("radix", 2, 0.05, 1, RC, False)]


def _sweep_argv(tmp_path, tag, *, jobs, cache):
    return ["sweep", "--workloads", "fft,radix", "--cores", "2",
            "--consistency", "RC", "--scale", "0.05", "--jobs", jobs,
            "--cache-dir", str(tmp_path / cache),
            "--results-out", str(tmp_path / f"{tag}.json")]


def _sweep(cache, keys, **kwargs):
    """Prefetch ``keys`` at two jobs over ``cache``: the runner and the
    results by key."""
    runner = ExperimentRunner(jobs=2, **kwargs)
    runner.cache = cache
    runner.prefetch(keys)
    return runner, {key: runner.result(key) for key in keys}


def _bad_cache_dir(tmp_path):
    """A cache directory whose results.sqlite is not a database."""
    cache_dir = tmp_path / "damaged"
    cache_dir.mkdir()
    (cache_dir / "results.sqlite").write_bytes(b"not a database " * 200)
    return str(cache_dir)


class TestByteIdentity:
    def test_results_identical_across_schedulers_and_backends(self, tmp_path,
                                                              capsys):
        """One grid: serial and pooled, each cold then warm on one SQLite
        cache, plus a pooled sweep over a memory cache — every result
        must be byte-for-byte identical."""
        from repro.tools import main
        matrix = [("serial_cold", "1", "c1"), ("serial_warm", "1", "c1"),
                  ("pool_cold", "2", "c2"), ("pool_warm", "2", "c2")]
        for tag, jobs, cache in matrix:
            assert main(_sweep_argv(tmp_path, tag, jobs=jobs,
                                    cache=cache)) == 0
            capsys.readouterr()
        reference = (tmp_path / "serial_cold.json").read_bytes()
        assert reference   # non-empty
        for tag, _, _ in matrix[1:]:
            produced = (tmp_path / f"{tag}.json").read_bytes()
            assert produced == reference, f"{tag} diverged from serial run"
        _, results = _sweep(ResultCache.from_spec("memory"), GRID)
        assert json.loads(reference) == {
            key.label(): run_result_to_dict(results[key]) for key in GRID}

    def test_warm_rerun_executes_nothing(self, tmp_path):
        store = SQLiteStore(tmp_path / "c.sqlite")
        cold, cold_results = _sweep(ResultCache(store=store), GRID,
                                    variants=TINY_VARIANTS)
        assert cold.sweep_metrics()["sweep.executed"] == len(GRID)
        warm, warm_results = _sweep(ResultCache(store=store), GRID,
                                    variants=TINY_VARIANTS)
        assert warm.sweep_metrics()["sweep.executed"] == 0
        for key in GRID:
            assert warm_results[key].to_dict() == cold_results[key].to_dict()
        store.close()


class TestCliBackendErrors:
    """A damaged cache file is a usage error (exit 2, one ``error:``
    line), never a traceback with the divergence exit code 1."""

    def test_tools_sweep_rejects_malformed_backend(self, tmp_path, capsys):
        from repro.tools import main
        code = main(["sweep", "--workloads", "fft", "--cores", "2",
                     "--scale", "0.05", "--cache-dir",
                     _bad_cache_dir(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "cannot open result cache" in err

    def test_harness_experiments_reject_malformed_backend(self, tmp_path,
                                                          capsys):
        from repro.tools import main
        code = main(["figures", "--experiments", "fig1", "--cores", "2",
                     "--cache-dir", _bad_cache_dir(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "cannot open result cache" in err
