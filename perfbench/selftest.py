"""Fast self-test of the benchmark at a tiny scale.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload untraced and traced at a tiny scale and checks
that every metric BENCHMARK.json declares comes out with its unit and
that no op fails.  It then plants two faults, a flipped bit in a stored
log and a corrupted result-cache entry, and checks that each is counted
as exactly one failed op, not a crash and not a pass.  Last, it runs the
benchmark in a directory that holds only BENCHMARK.json and perfbench/,
where it must exit non-zero without printing a result.  Exits 1 on any
problem.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _START
SEED = 3
TINY_SCALE = 0.05
#: The op a planted fault hits (op 0 is the warm-up op of the set-up).
FAULTY_OP = 2


def bench(name: str, trace: bool, before_op=None) -> tuple[dict, str]:
    log = io.StringIO()
    result = run.run_benchmark(
        name, seed=SEED, seconds=0.0, trace=trace, root=ROOT,
        import_s=IMPORT_S, scale=TINY_SCALE, setup_repeats=1,
        min_ops=FAULTY_OP + 1, before_op=before_op, log=log)
    return result, log.getvalue()


def check_metrics(name: str, trace: bool, problems: list[str]) -> None:
    result, log = bench(name, trace)
    label = f"{name} --trace {int(trace)}"
    missing = io.StringIO()
    run.with_units(result["metrics"], run.declared_metrics(ROOT, trace),
                   log=missing)
    if missing.getvalue():
        problems.append(f"{label}: {missing.getvalue().strip()}")
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} failed ops\n{log}")
    print(f"{label}: {result['attempted']} ops, "
          f"{len(result['metrics'])} metrics")


def check_fault(name: str, plant, problems: list[str]) -> None:
    """``plant(workload)`` breaks the op FAULTY_OP; exactly one op fails."""
    def before_op(index, workload):
        return plant(workload) if index == FAULTY_OP else None

    result, log = bench(name, False, before_op)
    if result["failed"] != 1 or result["correct"]:
        problems.append(f"{name} with {plant.__name__}: "
                        f"{result['failed']} failed ops, expected 1\n{log}")
    if f"op {FAULTY_OP}" not in log:
        problems.append(f"{name} with {plant.__name__}: the failure is not "
                        f"op {FAULTY_OP}\n{log}")
    print(f"{name} with {plant.__name__}: {result['failed']} of "
          f"{result['attempted']} ops failed")


def check_without_program(problems: list[str]) -> None:
    """Only BENCHMARK.json and perfbench/: non-zero exit, no result."""
    with run.fresh_dir(ROOT, "bare-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "record-fft16", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    if done.returncode == 0 or last.startswith("{"):
        problems.append(f"without src/: exit {done.returncode}, "
                        f"last line {last!r}")
    print(f"without src/: exit {done.returncode}")


def flip_log_bit(workload):
    return workload.flip_log_bit()


def corrupt_cache_entry(workload):
    return workload.corrupt_cache_entry()


def main() -> int:
    problems: list[str] = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            check_metrics(name, trace, problems)
    check_fault("replay-radix8", flip_log_bit, problems)
    check_fault("figures-warm", corrupt_cache_entry, problems)
    check_without_program(problems)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print(json.dumps({"ok": not problems, "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
