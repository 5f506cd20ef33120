"""RelaxReplay reproduction benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload record-fft16 --seed 1 --seconds 25 \\
        --trace 0

The workloads are ``record-fft16``, ``replay-radix8`` and ``figures-warm``
(see README.md).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run reports the per-layer ones and writes its spans as Chrome
trace events to ``.bench_out/``.  Times are reported in reference
seconds (see calibrate.py): while set-up passes and ops run, a timer
samples how fast the host runs a fixed pure-Python probe, and host
seconds are scaled by it.  Every file the run needs lives in a fresh
directory under ``.bench_tmp/``, removed at exit.

Exit codes: 0 after a result line (even when ops failed), 2 when the
program under test cannot be imported or the arguments are bad, 1 when
the run fails outside an op (a set-up pass, for instance).
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402

#: Set-up passes per run; set-up time is the median pass.
SETUP_REPEATS = 3


def context_of(root: Path) -> dict:
    """What the host looked like when the run started."""
    head = root / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        revision = ref
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            if ref_path.is_file():
                revision = ref_path.read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": revision,
        "loadavg_1m": os.getloadavg()[0],
    }


class Bench:
    """One run: set-up passes, a warm-up op, timed ops, checks, and in a
    traced run the interleaved traced ops and the layer ladder.  The
    calibration probes the host while each of these runs, by phase:
    ``setup`` (passes and warm-up op), ``op``, ``traced`` and ``ladder``.
    """

    def __init__(self, workload, rec, calibration, *, seconds: float,
                 setup_repeats: int = SETUP_REPEATS, min_ops: int = 1,
                 before_op=None, log=sys.stderr):
        self.wl = workload
        self.rec = rec
        self.calibration = calibration
        self.seconds = seconds
        self.setup_repeats = setup_repeats
        self.min_ops = min_ops
        self.before_op = before_op
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.op_s: list[tuple[float, bool]] = []        # untraced
        self.traced_op_s: list[tuple[float, bool]] = []
        self.ops_started = 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        print(f"FAILED {what}:", file=self.log)
        traceback.print_exception(exc, file=self.log)

    def setup(self, import_s: float) -> float:
        """Set-up passes; returns ``import_s`` plus the median pass plus
        the warm-up op, in host seconds."""
        passes = []
        for index in range(self.setup_repeats):
            self.rec.op = f"setup-{index}"
            gc.collect()
            with self.calibration.sampling("setup"):
                started = time.perf_counter()
                self.wl.prepare(index)
                passes.append(time.perf_counter() - started)
        self.rec.op = "warmup"
        warmup_s, _ = self.run_op("setup")
        return import_s + statistics.median(passes) + warmup_s

    def run_op(self, phase: str = "op"):
        """One op, then its check; failures are counted, never raised."""
        index = self.ops_started
        self.ops_started += 1
        undo = self.before_op(index, self.wl) if self.before_op else None
        self.attempted += 1
        if phase != "setup":
            self.rec.op = f"op-{index}"
        output = None
        gc.collect()
        with self.calibration.sampling(phase):
            started = time.perf_counter()
            try:
                output = self.wl.op()
            except Exception as exc:
                error = exc
            else:
                error = None
            elapsed = time.perf_counter() - started
        if error is not None:
            self.fail(f"op {index}", error)
            ok = False
        else:
            self.rec.op = f"check-{index}"
            try:
                self.wl.check(output)
                ok = True
            except Exception as exc:
                self.fail(f"check of op {index}", exc)
                ok = False
        output = error = None
        if undo is not None:
            undo()
        return elapsed, ok

    def timed_ops(self, traced: bool) -> None:
        """Ops for ``seconds``; a traced run alternates an untraced op with
        a traced one, so both see the same host conditions."""
        deadline = time.perf_counter() + self.seconds
        while (len(self.op_s) < self.min_ops
               or time.perf_counter() < deadline):
            self.op_s.append(self.run_op())
            if traced:
                with spans.instrumented(self.rec, profile=True):
                    self.traced_op_s.append(self.run_op("traced"))

    def ladder(self, stages) -> None:
        subject = self.wl.subject()
        self.rec.op = "ladder"
        for name in self.wl.ladder:
            self.attempted += 1
            try:
                with self.calibration.sampling("ladder"):
                    stages[name](self.rec, subject, self.wl)
            except Exception as exc:
                self.fail(f"ladder stage {name}", exc)


@contextlib.contextmanager
def fresh_dir(root: Path, prefix: str):
    """A fresh directory under the checkout's ``.bench_tmp/``, removed
    (with ``.bench_tmp/`` when nothing else uses it) on exit."""
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:             # another run is using it
            pass


@contextlib.contextmanager
def environ(name: str, value: str):
    """``os.environ[name] = value`` for the block."""
    previous = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if previous is None:
            del os.environ[name]
        else:
            os.environ[name] = previous


def mean_op(samples) -> float:
    """Seconds per op over the passed ops (over all ops when none passed).

    Throughput is total work over total time.  On a shared host, op times
    switch between a fast and a slow mode for seconds at a time; the mean
    moves smoothly with the share of slow ops where the median jumps
    between the modes (see README.md, Steadiness)."""
    passed = [seconds for seconds, ok in samples if ok]
    passed = passed or [seconds for seconds, _ in samples]
    return sum(passed) / len(passed)


def run_benchmark(name: str, *, seed: int, seconds: float, trace: bool,
                  root: Path, import_s: float, scale: float | None = None,
                  setup_repeats: int = SETUP_REPEATS, min_ops: int = 1,
                  before_op=None, trace_out: Path | None = None,
                  context: dict | None = None, log=sys.stderr) -> dict:
    """Run one workload and return the result object (see module doc)."""
    import workloads
    from repro.sim.kernel import KERNELS

    rec = spans.SpanRecorder() if trace else spans.NullRecorder()
    traced = ((lambda: spans.instrumented(rec)) if trace
              else contextlib.nullcontext)
    with fresh_dir(root, f"{name}-") as tmp, environ(
            "REPRO_KERNEL_CACHE_DIR", str(tmp / "kernels")), \
            calibrate.Calibration() as calibration:
        if trace:
            rec.synthetic("bench.import", _PROCESS_START, import_s)
        wl = workloads.WORKLOADS[name](seed, tmp, scale)
        bench = Bench(wl, rec, calibration, seconds=seconds,
                      setup_repeats=setup_repeats, min_ops=min_ops,
                      before_op=before_op, log=log)
        with traced():
            setup_s = bench.setup(import_s)
        bench.timed_ops(trace)
        if trace:
            with traced():
                bench.ladder(workloads.LADDER)

    op_s = mean_op(bench.op_s)
    if trace:
        # Spans come from every phase; they are scaled by the whole run.
        metrics = spans.layer_metrics(rec, KERNELS, calibration.reference_s)
        metrics.update(wl.counts)
        metrics.update({key: calibration.reference_s(seconds)
                        for key, seconds in wl.host_seconds.items()})
        metrics["bench.op_s"] = calibration.reference_s(op_s, "op")
        metrics["bench.traced_op_s"] = calibration.reference_s(
            mean_op(bench.traced_op_s), "traced")
        metrics["bench.probe_us"] = 1e6 * calibration.probe_s("op")
        # Each traced op runs right after an untraced one, under the same
        # host conditions; the median pair ratio is the tracing cost.
        ratios = [traced / untraced for (untraced, _), (traced, _)
                  in zip(bench.op_s, bench.traced_op_s)]
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            statistics.median(ratios) - 1)
        if trace_out is not None:
            trace_out.parent.mkdir(exist_ok=True)
            rec.write(trace_out, {"workload": name, "seed": seed,
                                  **(context or {})})
    else:
        reference_op_s = calibration.reference_s(op_s, "op")
        metrics = {
            "setup_s": calibration.reference_s(setup_s, "setup"),
            "kinstr_per_s": wl.instructions / 1e3 / reference_op_s,
            "cells_per_s": wl.cells / reference_op_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    print(f"# {name}: {len(bench.op_s)} timed ops, {op_s:.4f} host s per "
          f"op, set-up {setup_s:.3f} host s; "
          f"untraced ops {[round(s, 3) for s, _ in bench.op_s]}, "
          f"traced ops {[round(s, 3) for s, _ in bench.traced_op_s]}; "
          f"probes: " + ", ".join(
              f"{phase} {len(samples)} x "
              f"{1e6 * calibration.probe_s(phase):.1f} us"
              for phase, samples in calibration.samples.items()),
          file=log)
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for the mode."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def with_units(metrics: dict, declared: dict[str, str], log=sys.stderr
               ) -> dict:
    """The declared metrics with their units; names a missing one."""
    out = {}
    for name, unit in declared.items():
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": unit}
        else:
            print(f"missing metric {name}", file=log)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    context = context_of(root)
    print("# context: " + json.dumps(context, sort_keys=True))
    try:
        import repro  # noqa: F401
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    trace_out = None
    if args.trace:
        trace_out = (root / ".bench_out"
                     / f"{args.workload}-seed{args.seed}.trace.json")
    try:
        result = run_benchmark(args.workload, seed=args.seed,
                               seconds=args.seconds, trace=bool(args.trace),
                               root=root, import_s=import_s,
                               trace_out=trace_out, context=context)
    except Exception:
        traceback.print_exc()
        print("error: the run failed outside an op", file=sys.stderr)
        return 1
    result["metrics"] = with_units(
        result["metrics"], declared_metrics(root, bool(args.trace)))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
