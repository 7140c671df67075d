"""PIE program for BFS hop distances / reachability (library extension).

Structurally SSSP with unit edge weights, but PEval/IncEval are plain
queue-based BFS — cheaper than Dijkstra and a natural demonstration
that the PIE engine is agnostic to which textbook algorithm is plugged
in. The answer maps every vertex to its hop distance from the source
(unreachable vertices are absent); ``reachable_from`` derives the
reachability set.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.core.aggregators import MIN
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.digraph import Graph
from repro.graph.fragment import Fragment

VertexId = Hashable
INF = float("inf")

Partial = dict  # vertex -> best known hop distance


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
    """Multi-seed BFS with prior distances; returns (improvements, work)."""
    prior = known or {}
    updates: dict[VertexId, float] = {}
    queue: deque[VertexId] = deque()
    for v, d in sorted(seeds.items(), key=lambda kv: kv[1]):
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


class BFSProgram(PIEProgram[BFSQuery, Partial, dict]):
    """Textbook BFS + incremental BFS + min-union, as a PIE program."""

    name = "bfs"

    def param_spec(self, query: BFSQuery) -> ParamSpec:
        return ParamSpec(aggregator=MIN, default=INF)

    def peval(
        self, fragment: Fragment, query: BFSQuery, params: UpdateParams
    ) -> Partial:
        seeds = {}
        if query.source in fragment.graph:
            seeds[query.source] = 0.0
        partial, work = local_bfs(
            fragment.graph, seeds, max_depth=query.max_depth
        )
        params.charge(work)
        for v in fragment.border:
            d = partial.get(v, INF)
            if d < INF:
                params.improve(v, d)
        return partial

    def inceval(
        self,
        fragment: Fragment,
        query: BFSQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        seeds = {v: params.get(v) for v in changed}
        updates, work = local_bfs(
            fragment.graph, seeds, known=partial, max_depth=query.max_depth
        )
        partial.update(updates)
        params.charge(work)
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)
        return partial

    def classify_update(self, query: BFSQuery, op) -> bool:
        """Hop distances ignore weights: only deletions are unsafe."""
        return op.kind != "delete"

    def on_graph_update(
        self,
        fragment: Fragment,
        query: BFSQuery,
        partial: Partial,
        params: UpdateParams,
        delta,
    ) -> Partial:
        """ΔG hook: new edges only shorten hop distances.

        Reweights are hop-neutral no-ops; deletions are classified
        unsafe and repaired via :meth:`repair_partial`.
        """
        offers: dict[VertexId, float] = {}
        for op in delta:
            if op.kind != "insert":
                continue
            du = partial.get(op.src, INF)
            if du < INF:
                candidate = du + 1
                if candidate < offers.get(op.dst, INF):
                    offers[op.dst] = candidate
        updates, work = local_bfs(
            fragment.graph, offers, known=partial, max_depth=query.max_depth
        )
        partial.update(updates)
        params.charge(work)
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)
        return partial

    def delta_seeds(
        self, fragment: Fragment, query: BFSQuery, partial: Partial, ops
    ) -> set:
        """Endpoints whose hop count may have routed through a deletion.

        Unit-weight tightness: the lost edge mattered only when
        ``hops(dst) == hops(src) + 1``.
        """
        seeds: set = set()
        directed = fragment.graph.directed
        for op in ops:
            pairs = [(op.src, op.dst)]
            if not directed:
                pairs.append((op.dst, op.src))
            for u, v in pairs:
                if not fragment.graph.has_vertex(v):
                    # Pruned mirror: invalidation can no longer reach
                    # this fragment (it left known_by), so the stale
                    # partial entry must be discarded now (see SSSP).
                    if v in partial:
                        seeds.add(v)
                    continue
                dv = partial.get(v, INF)
                if dv == INF:
                    continue
                if dv == partial.get(u, INF) + 1:
                    seeds.add(v)
        return seeds

    def invalidated_region(
        self, fragment: Fragment, query: BFSQuery, partial: Partial,
        seeds: set,
    ) -> set:
        """Closure of ``seeds`` over tight (hop-incrementing) out-edges."""
        region = set(seeds)
        stack = [v for v in seeds if fragment.graph.has_vertex(v)]
        while stack:
            u = stack.pop()
            du = partial.get(u, INF)
            if du == INF:
                continue
            for v, _ in fragment.graph.iter_out(u):
                if v in region:
                    continue
                if partial.get(v, INF) == du + 1:
                    region.add(v)
                    stack.append(v)
        return region

    def repair_partial(
        self,
        fragment: Fragment,
        query: BFSQuery,
        partial: Partial,
        params: UpdateParams,
        region: set,
    ) -> Partial:
        """Re-derive an invalidated region's hops from its boundary."""
        for v in region:
            partial.pop(v, None)
        seeds: dict[VertexId, float] = {}
        if query.source in region and query.source in fragment.graph:
            seeds[query.source] = 0.0
        for v in region:
            if not fragment.graph.has_vertex(v):
                continue
            best = seeds.get(v, INF)
            for u, _ in fragment.graph.iter_in(v):
                if u in region:
                    continue
                du = partial.get(u, INF)
                if du + 1 < best:
                    best = du + 1
            if best < INF:
                if query.max_depth is not None and best > query.max_depth:
                    continue
                seeds[v] = best
        updates, work = local_bfs(
            fragment.graph, seeds, known=partial, max_depth=query.max_depth
        )
        partial.update(updates)
        params.charge(work)
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)
        return partial

    def assemble(
        self, query: BFSQuery, partials: Sequence[Partial]
    ) -> dict[VertexId, float]:
        result: dict[VertexId, float] = {}
        for partial in partials:
            for v, d in partial.items():
                if d < result.get(v, INF):
                    result[v] = d
        return result


def reachable_from(answer: Mapping[VertexId, float]) -> set[VertexId]:
    """Vertices reachable from the BFS source, from a BFS answer."""
    return {v for v, d in answer.items() if d < INF}
