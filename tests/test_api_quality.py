"""API-quality gates: documentation coverage and import hygiene.

Every public item (everything re-exported from a package ``__init__`` or
listed in a module's ``__all__``) must carry a docstring, and the package
must import without side effects or circular-import hazards.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    "repro",
    "repro.common", "repro.common.bits", "repro.common.bloom",
    "repro.common.config", "repro.common.errors", "repro.common.h3",
    "repro.common.hashing", "repro.common.stats",
    "repro.isa", "repro.isa.builder", "repro.isa.instructions",
    "repro.isa.program", "repro.isa.semantics",
    "repro.mem", "repro.mem.bus", "repro.mem.cache", "repro.mem.coherence",
    "repro.mem.directory", "repro.mem.memsys",
    "repro.cpu", "repro.cpu.consistency", "repro.cpu.core",
    "repro.cpu.dynops",
    "repro.obs", "repro.obs.causality", "repro.obs.coverage",
    "repro.obs.events", "repro.obs.exporters", "repro.obs.inspect",
    "repro.obs.forensics", "repro.obs.logging", "repro.obs.metrics",
    "repro.obs.perfdb", "repro.obs.profiler", "repro.obs.tracer",
    "repro.recorder", "repro.recorder.logfmt", "repro.recorder.mrr",
    "repro.recorder.ordering", "repro.recorder.snoop_table",
    "repro.recorder.traq",
    "repro.replay", "repro.replay.costmodel", "repro.replay.interpreter",
    "repro.replay.parallel", "repro.replay.patcher", "repro.replay.replayer",
    "repro.baselines", "repro.baselines.chunk",
    "repro.baselines.value_loggers",
    "repro.fuzz", "repro.fuzz.corpus", "repro.fuzz.coverage",
    "repro.fuzz.minimize", "repro.fuzz.mutate", "repro.fuzz.oracles",
    "repro.fuzz.scheduler",
    "repro.workloads", "repro.workloads.base", "repro.workloads.irregular",
    "repro.workloads.litmus", "repro.workloads.nbody",
    "repro.workloads.random_programs", "repro.workloads.scientific",
    "repro.sim", "repro.sim.compiled", "repro.sim.kernel",
    "repro.sim.machine", "repro.sim.serialize",
    "repro.harness", "repro.harness.cachestore",
    "repro.harness.figures", "repro.harness.parallel_runner",
    "repro.harness.report", "repro.harness.runner",
    "repro.storage", "repro.tools",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_importable_and_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name",
                         [m for m in MODULES if "." in m])
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    public = getattr(module, "__all__", None)
    if public is None:
        return
    undocumented = []
    for name in public:
        item = getattr(module, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, \
        f"{module_name}: undocumented public items: {undocumented}"


def test_all_submodules_enumerated():
    """Keep the MODULES list in sync with the actual package tree."""
    found = {"repro"}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "__main__" in info.name:
            continue
        found.add(info.name)
    missing = found - set(MODULES)
    assert not missing, f"modules missing from the quality gate: {missing}"


def test_public_classes_have_documented_public_methods():
    from repro.sim import Machine
    from repro.replay import Replayer
    from repro.recorder import (RecorderBank, RelaxReplayRecorder,
                                TrackingQueue)

    for cls in (Machine, Replayer, RecorderBank, RelaxReplayRecorder,
                TrackingQueue):
        for name, member in inspect.getmembers(cls,
                                               predicate=inspect.isfunction):
            if name.startswith("_"):
                continue
            assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


def test_version_exposed():
    assert repro.__version__
    assert all(part.isdigit() for part in repro.__version__.split("."))
