"""Streaming partitioners (Stanton & Kliot, KDD 2012).

The demo's partition-strategy experiment contrasts METIS against "a
streaming-style partition algorithm [8] that reduces cross edges". Two
classic one-pass heuristics are implemented:

* **LDG** (Linear Deterministic Greedy): place ``v`` on the part with the
  most already-placed neighbors, damped by a fullness penalty
  ``1 - |P_i| / C``.
* **Fennel**: maximize ``|N(v) ∩ P_i| - alpha * gamma * |P_i|^(gamma-1)``,
  an interpolation between cut and balance objectives.

Both see vertices once, in the graph's natural order, and are
dramatically cheaper than multilevel partitioning but produce more cross
edges — the trade-off the Section-3 numbers quantify (7.5M vs 40M
messages).
"""

from __future__ import annotations

from repro.graph.digraph import Graph
from repro.partition.base import Assignment, Partitioner

#: Fennel's exponent: 1 weighs only cut, larger values weigh balance more.
FENNEL_GAMMA = 1.5
#: Part capacity over the ideal ``n / k`` (both heuristics).
SLACK = 1.1


class LDGPartitioner(Partitioner):
    """Linear Deterministic Greedy streaming partitioner."""

    name = "ldg"

    def partition(self, graph: Graph, num_parts: int) -> Assignment:
        capacity = max(1.0, graph.num_vertices / num_parts) * SLACK
        sizes = [0] * num_parts
        assignment: Assignment = {}
        for v in graph.vertices():
            placed_nbrs = [0] * num_parts
            for u in graph.neighbors(v):
                fid = assignment.get(u)
                if fid is not None:
                    placed_nbrs[fid] += 1
            best_fid = 0
            best_score = float("-inf")
            for fid in range(num_parts):
                if sizes[fid] >= capacity:
                    continue
                score = placed_nbrs[fid] * (1.0 - sizes[fid] / capacity)
                if score > best_score:
                    best_score, best_fid = score, fid
            if best_score == float("-inf"):
                best_fid = min(range(num_parts), key=lambda f: sizes[f])
            assignment[v] = best_fid
            sizes[best_fid] += 1
        return assignment


class FennelPartitioner(Partitioner):
    """Fennel streaming partitioner (Tsourakakis et al. heuristic)."""

    name = "fennel"

    def partition(self, graph: Graph, num_parts: int) -> Assignment:
        n = max(1, graph.num_vertices)
        m = max(1, graph.num_edges)
        gamma = FENNEL_GAMMA
        alpha = m * (num_parts ** (gamma - 1.0)) / (n**gamma)
        capacity = SLACK * n / num_parts
        sizes = [0] * num_parts
        assignment: Assignment = {}
        for v in graph.vertices():
            placed_nbrs = [0] * num_parts
            for u in graph.neighbors(v):
                fid = assignment.get(u)
                if fid is not None:
                    placed_nbrs[fid] += 1
            best_fid = 0
            best_score = float("-inf")
            for fid in range(num_parts):
                if sizes[fid] >= capacity:
                    continue
                penalty = alpha * gamma * (sizes[fid] ** (gamma - 1.0))
                score = placed_nbrs[fid] - penalty
                if score > best_score:
                    best_score, best_fid = score, fid
            if best_score == float("-inf"):
                best_fid = min(range(num_parts), key=lambda f: sizes[f])
            assignment[v] = best_fid
            sizes[best_fid] += 1
        return assignment
