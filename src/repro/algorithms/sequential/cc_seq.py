"""Connected components: sequential PEval/IncEval pair for CC.

``connected_components`` labels every vertex with the minimum vertex id
of its (weakly) connected component using union-find — a stock
sequential algorithm. ``incremental_min_labels`` repairs labels after a
batch of border labels decreased, by BFS from the changed vertices —
bounded by the region whose labels actually change.

Vertex ids must be totally ordered (ints in all bundled datasets);
labels are component minima so the distributed min-aggregation converges
to the global minimum per component.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Mapping, MutableMapping

from repro.graph.digraph import Graph
from repro.utils.dsu import DisjointSet

VertexId = Hashable


def local_connectivity(graph: Graph) -> DisjointSet:
    """Union-find over ``graph``'s weakly-connected components."""
    dsu = DisjointSet(graph.vertices())
    for edge in graph.edges():
        dsu.union(edge.src, edge.dst)
    return dsu


def connected_components(graph: Graph) -> dict[VertexId, VertexId]:
    """Label each vertex with the min id in its weakly-connected component."""
    dsu = local_connectivity(graph)
    minimum: dict[VertexId, VertexId] = {}
    for v in graph.vertices():
        root = dsu.find(v)
        if root not in minimum or v < minimum[root]:
            minimum[root] = v
    return {v: minimum[dsu.find(v)] for v in graph.vertices()}


def incremental_min_labels(
    graph: Graph,
    labels: MutableMapping[VertexId, VertexId],
    decreased: Mapping[VertexId, VertexId],
) -> tuple[dict[VertexId, VertexId], int]:
    """Propagate a batch of lowered labels through the local graph.

    Treats edges as undirected (weak connectivity). Returns (changes,
    touched-vertex count).
    """
    queue: deque[VertexId] = deque()
    changes: dict[VertexId, VertexId] = {}
    touched = 0
    for v, label in decreased.items():
        if v not in graph:
            continue
        current = labels.get(v)
        # A vertex the label map has never seen (a freshly created
        # mirror) must be recorded and propagated even when its label
        # equals the id-based fallback other code paths guess.
        if current is None or label < current:
            labels[v] = label
            changes[v] = label
            queue.append(v)
    while queue:
        v = queue.popleft()
        touched += 1
        label = labels[v]
        for u in graph.iter_neighbors(v):
            if label < labels.get(u, u):
                labels[u] = label
                changes[u] = label
                queue.append(u)
    return changes, touched
