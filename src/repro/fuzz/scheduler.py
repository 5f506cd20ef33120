"""Coverage-guided fuzzing sessions (the AFL-style driver loop).

A :class:`FuzzSession` maintains a seed pool of genomes, repeatedly picks
a parent by *energy* (seeds that recently surfaced novel coverage get
picked more), mutates it (:mod:`.mutate`), evaluates the candidates
through the differential oracle stack (:mod:`.oracles`) — sharded across
worker processes via the harness's
:class:`~repro.harness.parallel_runner.ShardPool` when ``jobs > 1``
(each free worker takes the next candidate from the head of one queue,
so one slow genome never strands a batch) — and folds the
results back **in submission order**, so a session with a fixed seed and
a count budget is fully deterministic: same corpus, same coverage
counts, same verdicts, run after run, at any job width or dispatch
interleaving.

Oracle failures are auto-minimized by delta debugging (:mod:`.minimize`)
against the *same* oracle that rejected the candidate, then emitted as a
ready-to-commit regression corpus entry plus a forensics bundle (the
minimized :class:`~repro.fuzz.oracles.OracleReport`, and — for replay
divergences — a checkpointed
:class:`~repro.obs.forensics.DivergenceReport` with its ready-to-run
``repro.tools inspect`` command line).

:func:`random_baseline` runs the *same* evaluation and coverage
accounting over pure-random genomes at equal budget — the control arm
that lets the test-suite assert guided fuzzing reaches strictly more
distinct coverage buckets.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..common.config import ConsistencyModel
from ..harness.parallel_runner import ShardPool
from ..workloads.random_programs import params_for
from .corpus import (INTERVAL_CAPS, CorpusEntry, FuzzSpec, save_entry,
                     seed_entries, spec_key, spec_to_dict)
from .coverage import CoverageMap, bucket_signals
from .minimize import minimize
from .mutate import mutate
from .oracles import (OracleReport, evaluate_shard, evaluate_spec,
                      forensic_replay)

__all__ = ["FuzzConfig", "FuzzFailure", "FuzzReport", "FuzzSession",
           "random_spec", "random_baseline"]

_MODELS = (ConsistencyModel.RC, ConsistencyModel.TSO, ConsistencyModel.SC)


@dataclass
class FuzzConfig:
    """Knobs of one fuzz session.

    Exactly one budget applies: ``budget`` counts candidate evaluations
    (deterministic — the CI and test mode); ``wall_budget_s`` runs until
    the wall clock expires (exploratory mode, NOT run-to-run
    deterministic).
    """

    budget: int | None = 100
    wall_budget_s: float | None = None
    seed: int = 0
    jobs: int = 1
    batch: int | None = None            # candidates per generation
    overrides: dict = field(default_factory=dict)  # RecorderConfig fields
    explore_probability: float = 0.2    # fresh-random candidate rate
    minimize_failures: bool = True
    minimize_budget: int = 150          # predicate calls per minimization
    max_failures: int = 5               # stop minimizing/emitting past this
    emit_dir: str | Path | None = None  # regression emission directory


@dataclass
class FuzzFailure:
    """One oracle failure, minimized and (optionally) emitted."""

    oracle: str
    detail: str
    origin: str                         # "seed" | "mutation:<op>" | "random"
    spec: FuzzSpec                      # candidate as found
    minimized_spec: FuzzSpec            # after delta debugging
    minimize_steps: int = 0
    minimize_tested: int = 0
    report: dict = field(default_factory=dict)   # minimized OracleReport
    forensics: dict | None = None       # DivergenceReport dict (replay only)
    regression_path: str | None = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "detail": self.detail,
            "origin": self.origin,
            "spec": spec_to_dict(self.spec),
            "minimized_spec": spec_to_dict(self.minimized_spec),
            "minimize_steps": self.minimize_steps,
            "minimize_tested": self.minimize_tested,
            "report": dict(self.report),
            "forensics": self.forensics,
            "regression_path": self.regression_path,
        }


@dataclass
class FuzzReport:
    """What one session (or the random-baseline control) accomplished."""

    evaluated: int
    seed_candidates: int
    coverage_buckets: int
    mutation_new_buckets: int   # buckets first reached by a *mutated* genome
    pool_size: int
    minimize_evals: int
    failures: list[FuzzFailure]
    bucket_counts: dict
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "evaluated": self.evaluated,
            "seed_candidates": self.seed_candidates,
            "coverage_buckets": self.coverage_buckets,
            "mutation_new_buckets": self.mutation_new_buckets,
            "pool_size": self.pool_size,
            "minimize_evals": self.minimize_evals,
            "failures": [failure.to_dict() for failure in self.failures],
            "bucket_counts": dict(self.bucket_counts),
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class _PoolEntry:
    spec: FuzzSpec
    found: int = 0          # novel buckets credited to this seed's children
    chosen: int = 0

    @property
    def energy(self) -> float:
        # AFL-flavoured: finding novelty feeds energy, being picked
        # without paying off slowly drains it.
        return max(0.25, 1.0 + self.found - 0.05 * self.chosen)


def random_spec(rng: random.Random) -> FuzzSpec:
    """One pure-random genome (the unguided control generator)."""
    threads = 2 + rng.randrange(3)
    ops = 10 + rng.randrange(30)
    params = params_for(threads, ops, rng.getrandbits(32),
                        sharing=round(0.2 + 0.6 * rng.random(), 3),
                        lock_probability=round(0.2 * rng.random(), 3))
    return FuzzSpec(kind="random",
                    consistency=_MODELS[rng.randrange(len(_MODELS))],
                    interval_cap=INTERVAL_CAPS[
                        rng.randrange(len(INTERVAL_CAPS))],
                    params=params)


def _default_litmus_seeds() -> list[FuzzSpec]:
    return [
        FuzzSpec(kind="litmus", litmus="SB", staggers=(0, 0),
                 consistency=ConsistencyModel.RC, interval_cap=64),
        FuzzSpec(kind="litmus", litmus="MP", staggers=(0, 20),
                 consistency=ConsistencyModel.RC, interval_cap=64),
        FuzzSpec(kind="litmus", litmus="IRIW", staggers=(0, 0, 0, 0),
                 consistency=ConsistencyModel.SC, interval_cap=32),
    ]


class FuzzSession:
    """One coverage-guided fuzzing campaign."""

    def __init__(self, config: FuzzConfig, *,
                 seeds: list[FuzzSpec] | None = None,
                 extra_corpus: list[CorpusEntry] | None = None,
                 note=None):
        self.config = config
        self.rng = random.Random(config.seed)
        self.coverage = CoverageMap()
        self.pool: list[_PoolEntry] = []
        self.seen: set[str] = set()
        self.failures: list[FuzzFailure] = []
        self.evaluated = 0
        self.seed_candidates = 0
        self.mutation_new_buckets = 0
        self.minimize_evals = 0
        self.note = note if note is not None else (lambda line: None)
        if seeds is None:
            seeds = [entry.spec for entry in seed_entries()]
            seeds.extend(_default_litmus_seeds())
            # A couple of deterministic random genomes round out the pool.
            seeder = random.Random(config.seed ^ 0x5EED)
            seeds.extend(random_spec(seeder) for _ in range(3))
        if extra_corpus:
            seeds.extend(entry.spec for entry in extra_corpus)
        self.seeds = seeds

    # ------------------------------------------------------------- driving

    def run(self) -> FuzzReport:
        started = time.perf_counter()
        batch = self.config.batch or max(4, self.config.jobs)

        seed_batch = []
        for spec in self.seeds:
            key = spec_key(spec)
            if key not in self.seen:
                self.seen.add(key)
                seed_batch.append(spec)
        seed_batch = seed_batch[:self._remaining(started)]
        self.seed_candidates = len(seed_batch)
        for report in self._evaluate(seed_batch):
            entry = _PoolEntry(report.spec)
            self.pool.append(entry)
            self._fold(report, "seed", parent=entry, count_novelty=False)

        while self.pool and self._remaining(started) > 0:
            generation = min(batch, self._remaining(started))
            parents, candidates, origins = [], [], []
            pool_specs = [entry.spec for entry in self.pool]
            for _ in range(generation):
                # Epsilon-exploration: an occasional fresh random genome
                # keeps breadth while the pool exploits known-novel seeds.
                if self.rng.random() < self.config.explore_probability:
                    spec = random_spec(self.rng)
                    key = spec_key(spec)
                    if key in self.seen:
                        continue
                    self.seen.add(key)
                    parents.append(None)
                    candidates.append(spec)
                    origins.append("explore")
                    continue
                parent = self._select()
                candidate = self._fresh_mutation(parent.spec, pool_specs)
                if candidate is None:
                    continue
                operator, spec = candidate
                parents.append(parent)
                candidates.append(spec)
                origins.append(f"mutation:{operator}")
            if not candidates:
                break
            for parent, origin, report in zip(parents, origins,
                                              self._evaluate(candidates)):
                self._fold(report, origin, parent=parent)

        wall = time.perf_counter() - started
        return FuzzReport(
            evaluated=self.evaluated,
            seed_candidates=self.seed_candidates,
            coverage_buckets=len(self.coverage),
            mutation_new_buckets=self.mutation_new_buckets,
            pool_size=len(self.pool),
            minimize_evals=self.minimize_evals,
            failures=list(self.failures),
            bucket_counts=self.coverage.to_dict(),
            wall_seconds=wall)

    # ----------------------------------------------------------- internals

    def _remaining(self, started: float) -> int:
        if self.config.wall_budget_s is not None:
            elapsed = time.perf_counter() - started
            return (1 << 20 if elapsed < self.config.wall_budget_s else 0)
        budget = self.config.budget if self.config.budget is not None else 100
        return max(0, budget - self.evaluated)

    def _select(self) -> _PoolEntry:
        """Energy-weighted deterministic roulette selection."""
        total = sum(entry.energy for entry in self.pool)
        pick = self.rng.random() * total
        for entry in self.pool:
            pick -= entry.energy
            if pick <= 0:
                entry.chosen += 1
                return entry
        entry = self.pool[-1]
        entry.chosen += 1
        return entry

    def _fresh_mutation(self, spec: FuzzSpec,
                        pool_specs: list[FuzzSpec]):
        """Mutate toward a genome the session has not evaluated yet.

        AFL-style stacking: usually one operator, sometimes two or
        three chained — deep jumps reach states no single operator can.
        """
        for _ in range(8):
            depth = (1 + (self.rng.random() < 0.35)
                     + (self.rng.random() < 0.15))
            names, mutated = [], spec
            for _ in range(depth):
                name, mutated = mutate(mutated, self.rng, pool_specs)
                names.append(name)
            key = spec_key(mutated)
            if key not in self.seen:
                self.seen.add(key)
                return "+".join(names), mutated
        return None

    def _evaluate(self, specs: list[FuzzSpec]) -> list[OracleReport]:
        """Evaluate a generation; replies fold in submission order."""
        if not specs:
            return []
        overrides = dict(self.config.overrides)
        pool = ShardPool(jobs=self.config.jobs, worker=evaluate_shard)
        replies = pool.map(
            specs,
            payload=lambda spec, attempt: {"spec": spec_to_dict(spec),
                                           "overrides": overrides,
                                           "attempt": attempt},
            describe=FuzzSpec.describe)
        self.evaluated += len(specs)
        return [OracleReport.from_dict(reply["report"])
                for reply in replies]

    def _fold(self, report: OracleReport, origin: str, *,
              parent: _PoolEntry | None = None,
              count_novelty: bool = True) -> None:
        new = self.coverage.observe(bucket_signals(report.signals))
        if count_novelty:
            self.mutation_new_buckets += len(new)
            if new:
                if parent is not None:
                    parent.found += len(new)
                self.pool.append(_PoolEntry(report.spec, found=1))
        if not report.ok:
            self._handle_failure(report, origin)

    def _handle_failure(self, report: OracleReport, origin: str) -> None:
        first = report.failures()[0]
        self.note(f"[fuzz] FAILURE {first.oracle} on "
                  f"{report.spec.describe()}: {first.detail.splitlines()[0]}")
        if len(self.failures) >= self.config.max_failures:
            return
        overrides = dict(self.config.overrides)
        minimized_spec = report.spec
        steps = tested = 0
        if self.config.minimize_failures:
            target = first.oracle

            def failing(candidate: FuzzSpec) -> bool:
                self.minimize_evals += 1
                verdicts = evaluate_spec(candidate,
                                         overrides=overrides or None).verdicts
                return any(v.oracle == target and not v.ok for v in verdicts)

            outcome = minimize(report.spec, failing,
                               max_tests=self.config.minimize_budget)
            minimized_spec, steps, tested = (outcome.spec, outcome.steps,
                                             outcome.tested)
        minimized_report = evaluate_spec(minimized_spec,
                                         overrides=overrides or None)
        failure = FuzzFailure(
            oracle=first.oracle, detail=first.detail, origin=origin,
            spec=report.spec, minimized_spec=minimized_spec,
            minimize_steps=steps, minimize_tested=tested,
            report=minimized_report.to_dict(),
            forensics=forensic_replay(minimized_spec, first.oracle,
                                      overrides=overrides or None))
        if self.config.emit_dir is not None:
            failure.regression_path = str(self._emit(failure))
        self.failures.append(failure)

    def _emit(self, failure: FuzzFailure) -> Path:
        """Write the ready-to-commit regression entry + forensics bundle."""
        slug = failure.oracle.replace(":", "-")
        stem = f"fuzz_{slug}_{spec_key(failure.minimized_spec)[:12]}"
        entry = CorpusEntry(
            spec=failure.minimized_spec,
            origin="minimized",
            notes=(f"auto-minimized from {failure.origin}; "
                   f"oracle {failure.oracle}"),
            failure={"oracle": failure.oracle,
                     "detail": failure.detail,
                     "overrides": dict(self.config.overrides),
                     "found_spec": spec_to_dict(failure.spec)})
        path = save_entry(self.config.emit_dir, stem, entry)
        bundle = {"failure": failure.to_dict()}
        bundle_path = Path(self.config.emit_dir) / f"{stem}.forensics.json"
        bundle_path.write_text(json.dumps(bundle, indent=2, sort_keys=True)
                               + "\n")
        self.note(f"[fuzz] regression written: {path}")
        return path


def random_baseline(config: FuzzConfig) -> FuzzReport:
    """Unguided control: equal budget of pure-random genomes, same
    oracles and coverage accounting, no mutation feedback."""
    started = time.perf_counter()
    session = FuzzSession(config, seeds=[])
    budget = config.budget if config.budget is not None else 100
    batch = config.batch or max(4, config.jobs)
    while session.evaluated < budget:
        n = min(batch, budget - session.evaluated)
        specs = [random_spec(session.rng) for _ in range(n)]
        for report in session._evaluate(specs):
            new = session.coverage.observe(bucket_signals(report.signals))
            session.mutation_new_buckets += len(new)
            if not report.ok:
                session._handle_failure(report, "random")
    return FuzzReport(
        evaluated=session.evaluated,
        seed_candidates=0,
        coverage_buckets=len(session.coverage),
        mutation_new_buckets=session.mutation_new_buckets,
        pool_size=0,
        minimize_evals=session.minimize_evals,
        failures=list(session.failures),
        bucket_counts=session.coverage.to_dict(),
        wall_seconds=time.perf_counter() - started)
