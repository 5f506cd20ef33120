"""Shared infrastructure for the figure-regeneration benchmarks.

The heavy work (recording each workload once with every recorder variant)
is cached in a session-scoped :class:`~repro.harness.runner.ExperimentRunner`
so the per-figure benchmarks share executions.  Work scale defaults to 0.5
here (``python -m repro.tools figures`` uses 1.0); override with
``REPRO_SCALE``.

Figure tables print through ``capsys.disabled`` so they land in the
terminal / tee output alongside pytest-benchmark's own timing tables.
"""

import os

import pytest

os.environ.setdefault("REPRO_SCALE", "0.5")

from repro.harness import ExperimentRunner  # noqa: E402


@pytest.fixture(scope="session")
def runner():
    return ExperimentRunner(seed=1)


@pytest.fixture
def show(capsys):
    def _show(text: str) -> None:
        with capsys.disabled():
            print("\n" + text, flush=True)
    return _show


def once(benchmark, func):
    """Register ``func`` with pytest-benchmark, executed exactly once
    (simulation runs are deterministic and far too heavy to repeat)."""
    return benchmark.pedantic(func, rounds=1, iterations=1)
