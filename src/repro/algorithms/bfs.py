"""PIE program for BFS hop distances / reachability (library extension).

SSSP with unit edge weights — literally: :class:`BFSProgram` is
:class:`~repro.algorithms.sssp.SSSPProgram`'s relax -> publish skeleton
(PEval, IncEval, the ΔG hooks, Assemble) with the other textbook kernel
bound. Plain queue-based BFS is cheaper than Dijkstra and a natural
demonstration that the PIE engine is agnostic to which sequential
algorithm is plugged in. The answer maps every vertex to its hop
distance from the source (unreachable vertices are absent);
``reachable_from`` derives the reachability set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.algorithms.sssp import INF, Partial, SSSPProgram
from repro.graph.digraph import Graph
from repro.graph.fragment import Fragment

VertexId = Hashable


@dataclass(frozen=True)
class BFSQuery:
    """Hop distances from ``source`` along out-edges."""

    source: VertexId
    max_depth: int | None = None


def local_bfs(
    graph: Graph,
    seeds: Mapping[VertexId, float],
    known: Mapping[VertexId, float] | None = None,
    max_depth: int | None = None,
) -> tuple[dict[VertexId, float], int]:
    """Multi-seed BFS with prior distances; returns (improvements, work).

    ``max_depth`` bounds what is *accepted* as well as what is expanded:
    a seed deeper than it is dropped here, so no caller can let one in.
    """
    prior = known or {}
    updates: dict[VertexId, float] = {}
    queue: deque[VertexId] = deque()
    for v, d in sorted(seeds.items(), key=lambda kv: kv[1]):
        if max_depth is not None and d > max_depth:
            continue
        if v in graph and d < prior.get(v, INF) and d < updates.get(v, INF):
            updates[v] = d
            queue.append(v)
    work = 0
    while queue:
        v = queue.popleft()
        work += 1
        d = updates[v]
        if max_depth is not None and d >= max_depth:
            continue
        for u, _ in graph.iter_out(v):
            nd = d + 1
            if nd < updates.get(u, prior.get(u, INF)):
                updates[u] = nd
                queue.append(u)
    return updates, work


class BFSProgram(SSSPProgram):
    """Textbook BFS + incremental BFS + min-union, as a PIE program."""

    name = "bfs"

    def _settle(
        self, fragment: Fragment, query: BFSQuery, partial: Partial,
        offers: Mapping[VertexId, float],
    ) -> tuple[dict[VertexId, float], int]:
        updates, work = local_bfs(
            fragment.graph, offers, known=partial, max_depth=query.max_depth
        )
        partial.update(updates)
        return updates, work

    def _cost(self, weight: float | None) -> float:
        """Every edge is one hop, whatever it weighs or used to weigh."""
        return 1

    def _depends(self, dv: float, offer: float) -> bool:
        """Exact tightness: hop counts never change under a reweight, so
        no same-batch op can make a once-tight edge read slack."""
        return dv == offer

    def classify_update(self, query: BFSQuery, op) -> bool:
        """Hop distances ignore weights: only deletions are unsafe."""
        return op.kind != "delete"


def reachable_from(answer: Mapping[VertexId, float]) -> set[VertexId]:
    """Vertices reachable from the BFS source, from a BFS answer."""
    return {v for v, d in answer.items() if d < INF}
