"""Dijkstra's algorithm — the paper's PEval for SSSP (Example 1).

The multi-seed form computes, for every vertex, the least cost of
reaching it from any seed given the seeds' starting costs. PEval seeds
with ``{source: 0}``; IncEval seeds with the border vertices whose
update parameters just decreased — the same routine serves both, which
is exactly the reuse the PIE model advertises.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, Mapping

from repro.graph.digraph import Graph

VertexId = Hashable

#: Distance of unreachable vertices.
INF = float("inf")


def dijkstra(
    graph: Graph,
    seeds: Mapping[VertexId, float],
    known: Mapping[VertexId, float] | None = None,
) -> tuple[dict[VertexId, float], int]:
    """Multi-seed Dijkstra with optional prior distances.

    The queue is the C ``heapq`` with lazy deletion: instead of a
    decrease-key, a better offer for a queued vertex is pushed beside
    the old one and the stale entry is skipped when it surfaces.
    Entries are ``(cost, insertion counter, vertex)``, so equal costs
    pop in insertion order and vertex ids are never compared.

    Args:
        graph: the (fragment-local) graph.
        seeds: starting vertices and their starting costs.
        known: previously settled distances; a vertex is only re-settled
            (and its edges only re-relaxed) if the new cost improves on
            ``known`` — this is what makes the incremental call *bounded*
            by the affected region instead of the fragment size.

    Returns:
        (distance updates, settled count). ``distance updates`` contains
        every vertex whose distance improved (including seeds that did).
    """
    prior_get = (known or {}).get
    # best cost offered to each vertex so far; an entry is pushed only
    # when it strictly lowers this, so of a vertex's queued entries
    # exactly the newest equals it and every other one is stale
    tentative: dict[VertexId, float] = {}
    tentative_get = tentative.get
    heap: list[tuple[float, int, VertexId]] = []
    pushed = 0
    for v, cost in seeds.items():
        if v in graph and cost < prior_get(v, INF):
            tentative[v] = cost
            heappush(heap, (cost, pushed, v))
            pushed += 1
    dist: dict[VertexId, float] = {}
    # iter_out streams (dst, weight) pairs straight off the store —
    # for CSR that's a zero-copy walk of the row arrays
    iter_out = graph.iter_out
    while heap:
        cost, _, v = heappop(heap)
        if cost > tentative[v]:
            continue
        dist[v] = cost
        for dst, weight in iter_out(v):
            offer = cost + weight
            if offer < tentative_get(dst, INF) and offer < prior_get(dst, INF):
                tentative[dst] = offer
                heappush(heap, (offer, pushed, dst))
                pushed += 1
    return dist, len(dist)


def single_source(graph: Graph, source: VertexId) -> dict[VertexId, float]:
    """Classic SSSP from one source; unreachable vertices get ``inf``."""
    updates, _ = dijkstra(graph, {source: 0.0})
    out = {v: INF for v in graph.vertices()}
    out.update(updates)
    return out
