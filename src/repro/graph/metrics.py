"""Structural graph metrics used by experiments and partition reports."""

from __future__ import annotations

from collections import Counter, deque
from typing import Hashable, Mapping

from repro.graph.digraph import Graph

VertexId = Hashable


def degree_histogram(graph: Graph) -> dict[int, int]:
    """Out-degree -> count of vertices with that out-degree."""
    return dict(Counter(graph.out_degree(v) for v in graph.vertices()))


def average_degree(graph: Graph) -> float:
    """Mean out-degree (|E| / |V|)."""
    if graph.num_vertices == 0:
        return 0.0
    return graph.num_edges / graph.num_vertices


def max_degree(graph: Graph) -> int:
    """Largest out-degree in the graph."""
    return max((graph.out_degree(v) for v in graph.vertices()), default=0)


def bfs_layers(graph: Graph, source: VertexId) -> dict[VertexId, int]:
    """Hop distance from ``source`` along out-edges."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.out_neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def eccentricity(graph: Graph, source: VertexId) -> int:
    """Max hop distance reachable from ``source`` (its BFS depth)."""
    layers = bfs_layers(graph, source)
    return max(layers.values(), default=0)


def estimate_diameter(graph: Graph, probes: int = 4) -> int:
    """Double-sweep lower bound on the diameter.

    Runs a BFS from an arbitrary vertex, then from the farthest vertex
    found, repeating ``probes`` times; returns the largest depth seen.
    Exact diameters are overkill for the experiments — what matters is
    road-network diameters being orders of magnitude above social ones.
    """
    vertices = list(graph.vertices())
    if not vertices:
        return 0
    best = 0
    start = vertices[0]
    for _ in range(probes):
        layers = bfs_layers(graph, start)
        if not layers:
            break
        far, depth = max(layers.items(), key=lambda kv: kv[1])
        best = max(best, depth)
        if far == start:
            break
        start = far
    return best


def edge_cut(graph: Graph, assignment: Mapping[VertexId, int]) -> int:
    """Edges crossing fragments under a vertex assignment."""
    return sum(
        1
        for e in graph.edges()
        if assignment[e.src] != assignment[e.dst]
    )


def partition_balance(
    graph: Graph, assignment: Mapping[VertexId, int], parts: int
) -> float:
    """Max part size / ideal part size under ``assignment``."""
    sizes = Counter(assignment[v] for v in graph.vertices())
    if not sizes or graph.num_vertices == 0:
        return 1.0
    ideal = graph.num_vertices / parts
    return max(sizes.values()) / ideal
