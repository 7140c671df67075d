"""Initial partition of the coarsest graph: greedy region growing."""

from __future__ import annotations

from repro.partition.multilevel.coarsen import WorkGraph
from repro.utils.rng import make_rng


def greedy_growth(
    wg: WorkGraph, num_parts: int, seed: int | None = 0
) -> dict[int, int]:
    """Grow ``num_parts`` weight-balanced regions by best-connected BFS.

    Each region starts at the heaviest unassigned vertex and repeatedly
    absorbs the frontier vertex with the strongest connection to the
    region, until the region's vertex weight reaches the ideal share; a
    region whose frontier empties first (a disconnected remnant)
    re-seeds at the heaviest unassigned vertex. The last region takes
    what is left, which is at most its share.
    """
    ideal = wg.total_vertex_weight() / num_parts
    rng = make_rng(seed, "greedy_growth")
    unassigned = dict.fromkeys(
        sorted(range(wg.num_vertices), key=lambda v: -wg.vweight[v])
    )
    assignment: dict[int, int] = {}
    part_weight = [0.0] * num_parts

    for part in range(num_parts - 1):
        frontier_gain: dict[int, float] = {}
        while unassigned and part_weight[part] < ideal:
            if not frontier_gain:
                frontier_gain[next(iter(unassigned))] = 0.0
            v = max(
                frontier_gain,
                key=lambda x: (frontier_gain[x], -wg.vweight[x], rng.random()),
            )
            del frontier_gain[v]
            if v not in unassigned:
                continue
            del unassigned[v]
            assignment[v] = part
            part_weight[part] += wg.vweight[v]
            for u, w in wg.adj[v].items():
                if u in unassigned:
                    frontier_gain[u] = frontier_gain.get(u, 0.0) + w

    for v in unassigned:
        assignment[v] = num_parts - 1
    return assignment
