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
    region, until the region's vertex weight reaches the ideal share.
    Leftovers (disconnected remnants) go to the lightest region.
    """
    ideal = wg.total_vertex_weight() / num_parts
    rng = make_rng(seed, "greedy_growth")
    unassigned = dict.fromkeys(
        sorted(range(wg.num_vertices), key=lambda v: -wg.vweight[v])
    )
    assignment: dict[int, int] = {}
    part_weight = [0.0] * num_parts

    for part in range(num_parts - 1):
        if not unassigned:
            break
        seed_v = next(iter(unassigned))
        frontier_gain: dict[int, float] = {seed_v: 0.0}
        while frontier_gain and part_weight[part] < ideal:
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

    # Everything left belongs to the last part, unless that unbalances it
    # badly, in which case spill to the lightest parts.
    last = num_parts - 1
    for v in unassigned:
        if part_weight[last] < ideal * 1.2:
            target = last
        else:
            target = min(range(num_parts), key=lambda p: part_weight[p])
        assignment[v] = target
        part_weight[target] += wg.vweight[v]
    return assignment
