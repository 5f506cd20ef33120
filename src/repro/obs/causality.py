"""Happens-before causality over recorded chunks (intervals).

A recorded execution induces a partial order on its chunks: program order
chains each core's intervals, and the inter-chunk dependence edges the
recorder collects (``src_core/src_cisn -> dst_core/dst_cisn``, a
``RunResult``'s ``dependence_edges``, which every stored form keeps) order
communicating chunks across cores.  :class:`CausalityGraph` materializes
that partial order and answers ancestor/descendant/slice queries, so a
replay divergence can be explained by its *causal cone* — the exact set of
chunks whose effects the culprit chunk could have observed.

When a recording carries no pairwise edges (they are only collected with
``collect_dependence_edges=True``), the graph falls back to the QuickRec
scalar-timestamp total order: consecutive chunks in replay order are
chained across cores.  That over-approximates the true dependences (every
earlier chunk becomes an ancestor) but is sound — QuickRec replay really
does commit them first — and the ``source`` attribute says which
construction was used.

Built from recorded edges, the same graph is the DAG parallel replay
(:mod:`repro.replay.parallel`) runs over, in its topological order.

Nodes are plain ``(core_id, cisn)`` tuples throughout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..common.errors import LogFormatError

__all__ = ["Node", "HBSlice", "CausalityGraph"]

#: A chunk identity: (core_id, cisn).
Node = tuple[int, int]


def _compress_ranges(cisns: list[int]) -> str:
    """Render a sorted CISN list as compact ranges, e.g. ``0-3,7``."""
    parts: list[str] = []
    start = previous = None
    for cisn in cisns:
        if start is None:
            start = previous = cisn
        elif cisn == previous + 1:
            previous = cisn
        else:
            parts.append(str(start) if start == previous
                         else f"{start}-{previous}")
            start = previous = cisn
    if start is not None:
        parts.append(str(start) if start == previous
                     else f"{start}-{previous}")
    return ",".join(parts)


@dataclass
class HBSlice:
    """The causal cone of one chunk: everything it happens-after."""

    node: Node
    ancestors: list[Node]          # sorted (core, cisn), excludes node
    source: str                    # "edges" | "timestamps"
    depth: int | None = None       # BFS bound used, None = unbounded

    def to_dict(self) -> dict:
        return {
            "core": self.node[0],
            "cisn": self.node[1],
            "ancestors": [[core, cisn] for core, cisn in self.ancestors],
            "ancestor_count": len(self.ancestors),
            "source": self.source,
            "depth": self.depth,
        }

    def render(self) -> str:
        per_core: dict[int, list[int]] = {}
        for core, cisn in self.ancestors:
            per_core.setdefault(core, []).append(cisn)
        cores = " ".join(
            f"core{core}[{_compress_ranges(sorted(cisns))}]"
            for core, cisns in sorted(per_core.items()))
        head = (f"HB slice of core {self.node[0]} chunk {self.node[1]} "
                f"({self.source}): {len(self.ancestors)} ancestor chunk(s)")
        return head + (f"\n  {cores}" if cores else "")


@dataclass
class CausalityGraph:
    """Happens-before DAG over the chunks of one recorded variant."""

    intervals_per_core: list[int]
    source: str
    # Adjacency as insertion-ordered dicts (used as sets), so a traversal
    # visits program-order links first, then recorded edges in log order.
    _preds: dict[Node, dict[Node, None]] = field(default_factory=dict)
    _succs: dict[Node, dict[Node, None]] = field(default_factory=dict)

    @classmethod
    def build(cls, intervals_per_core: list[int], *, edges=None,
              order: list[Node] | None = None) -> "CausalityGraph":
        """Build the graph for a recording.

        ``edges`` is the recorded :class:`~repro.recorder.ordering
        .IntervalEdge` list (may be None/empty); ``order`` is the QuickRec
        total replay order used as the conservative fallback when no
        pairwise edges were collected.
        """
        graph = cls(intervals_per_core=list(intervals_per_core),
                    source="edges" if edges else "timestamps")
        # Program order: (c, k-1) -> (c, k).
        for core, count in enumerate(intervals_per_core):
            for cisn in range(1, count):
                graph._add_edge((core, cisn - 1), (core, cisn))
        if edges:
            for edge in edges:
                src = (edge.src_core, edge.src_cisn)
                dst = (edge.dst_core, edge.dst_cisn)
                if graph.has_node(src) and graph.has_node(dst) and src != dst:
                    graph._add_edge(src, dst)
        elif order:
            # QuickRec fallback: chain consecutive chunks of the total
            # order across cores (program order covers the same-core case).
            for previous, current in zip(order, order[1:]):
                if previous[0] != current[0]:
                    graph._add_edge(previous, current)
        return graph

    # -------------------------------------------------------------- nodes

    def has_node(self, node: Node) -> bool:
        core, cisn = node
        return (0 <= core < len(self.intervals_per_core)
                and 0 <= cisn < self.intervals_per_core[core])

    @property
    def num_nodes(self) -> int:
        return sum(self.intervals_per_core)

    @property
    def num_edges(self) -> int:
        return sum(len(succs) for succs in self._succs.values())

    def nodes(self) -> list[Node]:
        return [(core, cisn)
                for core, count in enumerate(self.intervals_per_core)
                for cisn in range(count)]

    def _add_edge(self, src: Node, dst: Node) -> None:
        self._succs.setdefault(src, {})[dst] = None
        self._preds.setdefault(dst, {})[src] = None

    def _require(self, node: Node) -> None:
        if not self.has_node(node):
            raise KeyError(
                f"chunk (core {node[0]}, cisn {node[1]}) is not in the "
                f"recording (cores have {self.intervals_per_core} intervals)")

    # ------------------------------------------------------------ queries

    def parents(self, node: Node) -> list[Node]:
        """Immediate happens-before predecessors, sorted."""
        self._require(node)
        return sorted(self._preds.get(node, ()))

    def children(self, node: Node) -> list[Node]:
        """Immediate happens-after successors, sorted."""
        self._require(node)
        return sorted(self._succs.get(node, ()))

    def topological_order(self) -> list[Node]:
        """Every chunk in a graph order that is deliberately not the
        timestamp order (Kahn's algorithm, younger core first); a cycle
        raises :class:`LogFormatError`."""
        nodes = self.nodes()
        indegree = {node: len(self._preds.get(node, ())) for node in nodes}
        ready = deque(sorted((node for node in nodes if not indegree[node]),
                             key=lambda node: (-node[0], node[1])))
        order: list[Node] = []
        while ready:
            node = ready.popleft()
            order.append(node)
            for successor in self._succs.get(node, ()):
                indegree[successor] -= 1
                if not indegree[successor]:
                    ready.append(successor)
        if len(order) != len(nodes):
            raise LogFormatError(
                f"interval dependence graph has a cycle "
                f"({len(nodes) - len(order)} intervals unreachable)")
        return order

    def _reach(self, node: Node, links: dict[Node, dict[Node, None]],
               depth: int | None) -> set[Node]:
        self._require(node)
        seen: set[Node] = set()
        frontier = deque([(node, 0)])
        while frontier:
            current, distance = frontier.popleft()
            if depth is not None and distance >= depth:
                continue
            for neighbour in links.get(current, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append((neighbour, distance + 1))
        return seen

    def ancestors(self, node: Node, *, depth: int | None = None) -> set[Node]:
        """All chunks that happen-before ``node`` (up to ``depth`` hops)."""
        return self._reach(node, self._preds, depth)

    def descendants(self, node: Node, *,
                    depth: int | None = None) -> set[Node]:
        """All chunks that happen-after ``node`` (up to ``depth`` hops)."""
        return self._reach(node, self._succs, depth)

    def slice(self, node: Node, *, depth: int | None = None) -> HBSlice:
        """The causal cone of ``node`` as a renderable :class:`HBSlice`."""
        return HBSlice(node=node,
                       ancestors=sorted(self.ancestors(node, depth=depth)),
                       source=self.source, depth=depth)

    def to_dict(self) -> dict:
        """JSON-able summary (nodes per core plus the explicit edge list)."""
        return {
            "intervals_per_core": list(self.intervals_per_core),
            "source": self.source,
            "nodes": self.num_nodes,
            "edges": sorted(
                [[src[0], src[1], dst[0], dst[1]]
                 for src, succs in self._succs.items() for dst in succs]),
        }
