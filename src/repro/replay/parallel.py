"""Parallel deterministic replay over the interval dependence DAG.

The paper's Sections 2.1 and 5.4 note that chunk-ordering schemes which
record pairwise dependences (Cyrus, Karma) admit *parallel* replay — each
processor replays its own interval stream, synchronizing only at recorded
inter-interval edges — and that small maximum interval sizes exist
precisely to expose this parallelism.

This module implements that replayer on top of the Cyrus-style edges
collected by :class:`repro.recorder.ordering.DependenceTracker`, from the
same three parts as sequential replay:

* the interval DAG is the happens-before graph
  :class:`~repro.obs.causality.CausalityGraph` builds from the recorded
  edges and per-core program order; a cycle is an error;
* :class:`~repro.replay.replayer.Replayer` executes the intervals in the
  graph's topological order, which deliberately ignores the QuickRec
  timestamps, and :func:`~repro.replay.replayer.verify_and_cost` verifies
  the result — if the edges missed any dependence, the bit-exact
  determinism check fails and names the culprit chunk;
* the DAG is scheduled on one worker per core (an interval starts when its
  same-core predecessor and all edge predecessors finished; each duration
  is the Figure 13 cost model applied to that interval's replay counts),
  giving the parallel makespan and the speedup over sequential replay.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import LogFormatError
from ..obs.causality import CausalityGraph
from .costmodel import ReplayCounts, estimate_replay_time, recorded_cpi
from .replayer import Replayer, pick_variant, verify_and_cost

__all__ = ["ParallelReplayResult", "parallel_replay_recording"]


@dataclass
class ParallelReplayResult:
    """Outcome of a verified parallel replay."""

    variant: str
    counts: ReplayCounts
    makespan_cycles: float       # parallel schedule length
    sequential_cycles: float     # sum of all interval durations
    critical_path_cycles: float  # lower bound from the DAG alone
    edges: int
    verified: bool

    @property
    def speedup(self) -> float:
        return (self.sequential_cycles / self.makespan_cycles
                if self.makespan_cycles else 0.0)


def parallel_replay_recording(recording, variant: str | None = None, *,
                              verify: bool = True) -> ParallelReplayResult:
    """Parallel-replay one variant of a ``RunResult`` (default: the first
    in sorted order) and verify it.

    The recording must carry the variant's dependence edges: record with
    ``--edges`` (``collect_dependence_edges=True``).
    """
    variant = pick_variant(recording, variant)
    edges = recording.dependence_edges.get(variant)
    if edges is None:
        raise LogFormatError(
            f"recording has no dependence edges for {variant!r}; record it "
            f"with --edges (collect_dependence_edges=True) to replay it in "
            f"parallel")
    replayer = Replayer.of(recording, variant)
    graph = CausalityGraph.build(replayer.intervals_per_core(), edges=edges)
    replayer.reorder(graph.topological_order())
    replayer.hb_graph = graph
    cost = recording.config.replay_cost
    cpi = recorded_cpi(recording)
    finish: dict[tuple[int, int], float] = {}
    durations: list[float] = []

    def schedule(_state, interval, counts: ReplayCounts) -> None:
        # One replay worker per core waits for the chunk's recorded
        # predecessors (condition variables in the paper's OS module).
        duration = max(
            estimate_replay_time(counts, cost, cpi).total_cycles, 1.0)
        node = (interval.core_id, interval.cisn)
        finish[node] = duration + max(
            (finish[parent] for parent in graph.parents(node)), default=0.0)
        durations.append(duration)

    state = replayer.run(replayer.initial_state(), on_interval_end=schedule)
    verify_and_cost(recording, replayer, state.memory, state.contexts,
                    state.counts, verify=verify)
    makespan = max(finish.values(), default=0.0)
    return ParallelReplayResult(
        variant=variant,
        counts=state.counts,
        makespan_cycles=makespan,
        sequential_cycles=sum(durations),
        critical_path_cycles=makespan,
        edges=sum(graph.has_node((edge.src_core, edge.src_cisn))
                  and graph.has_node((edge.dst_core, edge.dst_cisn))
                  for edge in edges),
        verified=verify,
    )
