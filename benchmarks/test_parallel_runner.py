"""Benchmarks for the sweep runner's pool and the result cache.

Asserts the two acceptance properties of the sweep infrastructure:

* a warm-cache rerun of a sweep is at least 5x faster than the cold
  recording pass, and
* the report tables computed through the parallel path (4+ workers) are
  byte-identical to the serial path's.
"""

import json
import time

from conftest import once

from repro.common.config import ConsistencyModel
from repro.harness import (
    ExperimentRunner,
    fig1_ooo_fractions,
    fig9_reordered_fractions,
)
from repro.harness.report import render_all
from repro.harness.runner import RunKey, default_scale

WORKLOADS = ("fft", "radix", "lu", "ocean", "barnes", "cholesky")


def _grid():
    return [RunKey(name, 4, default_scale(), 1, ConsistencyModel.RC, False)
            for name in WORKLOADS]


def _sweep(cache_dir):
    """Prefetch the grid at four jobs: the shards recorded and the
    results by key."""
    runner = ExperimentRunner(jobs=4, cache_dir=str(cache_dir))
    executed = runner.prefetch(_grid())
    return executed, {key: runner.result(key) for key in _grid()}


def test_warm_cache_rerun_is_5x_faster(benchmark, tmp_path, show):
    cache_dir = tmp_path / "cache"
    started = time.perf_counter()
    cold_executed, cold_results = once(benchmark, lambda: _sweep(cache_dir))
    cold = time.perf_counter() - started

    started = time.perf_counter()
    warm_executed, warm_results = _sweep(cache_dir)
    warm = time.perf_counter() - started

    show(f"sweep over {len(WORKLOADS)} shards: cold {cold:.2f}s "
         f"({cold_executed} recorded), warm {warm:.2f}s "
         f"({warm_executed} recorded, speedup {cold / warm:.1f}x)")
    assert warm_executed == 0, "warm sweep must be all cache hits"
    assert warm * 5 <= cold, \
        f"warm rerun only {cold / warm:.1f}x faster (need >= 5x)"
    for key in _grid():
        assert (json.dumps(warm_results[key].to_dict(), sort_keys=True)
                == json.dumps(cold_results[key].to_dict(), sort_keys=True))


def test_parallel_tables_byte_identical_to_serial(benchmark, tmp_path, show):
    workloads = WORKLOADS[:4]
    serial = ExperimentRunner(seed=1, workloads=workloads)
    parallel = ExperimentRunner(seed=1, workloads=workloads, jobs=4,
                                cache_dir=str(tmp_path / "cache"))

    def tables(runner):
        return render_all({
            "fig1": fig1_ooo_fractions(runner, cores=4),
            "fig9": fig9_reordered_fractions(runner, cores=4),
        })

    text_parallel = once(benchmark, lambda: tables(parallel))
    text_serial = tables(serial)
    show(f"fig1+fig9 over {len(workloads)} workloads: "
         f"parallel(4) output == serial output: "
         f"{text_parallel == text_serial}")
    assert text_parallel == text_serial
