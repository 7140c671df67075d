"""Multilevel partitioner driver: coarsen -> initial -> uncoarsen+refine.

This is the repo's stand-in for METIS (see DESIGN.md). On power-law and
road graphs it reaches cut fractions far below hash/streaming baselines,
which is the property the Section-3 partition experiment needs.
"""

from __future__ import annotations

from repro.graph.digraph import Graph
from repro.partition.base import Assignment, Partitioner
from repro.partition.multilevel.coarsen import coarsen, make_work_graph
from repro.partition.multilevel.initial import greedy_growth
from repro.partition.multilevel.refine import project, refine

#: Allowed part weight over ideal (1.05 = 5% slack).
IMBALANCE = 1.05
#: Stop coarsening at about this many coarse vertices per part.
COARSEST_PER_PART = 25
#: Boundary refinement sweeps per level.
REFINE_PASSES = 4


class MultilevelPartitioner(Partitioner):
    """Heavy-edge-matching multilevel partitioner with FM refinement.

    Args:
        seed: randomization seed for matching order.
    """

    name = "multilevel"

    def __init__(self, seed: int | None = 0) -> None:
        self.seed = seed

    def partition(self, graph: Graph, num_parts: int) -> Assignment:
        if graph.num_vertices == 0:
            return {}
        if num_parts == 1:
            return {v: 0 for v in graph.vertices()}
        wg, vids = make_work_graph(graph)
        target = max(COARSEST_PER_PART * num_parts, 64)
        levels = coarsen(wg, target_size=target, seed=self.seed)
        coarsest = levels[-1].graph if levels else wg
        grown = greedy_growth(coarsest, num_parts, seed=self.seed)
        part = [grown[v] for v in range(coarsest.num_vertices)]
        max_weight = IMBALANCE * wg.total_vertex_weight() / num_parts
        boundary = refine(coarsest, part, num_parts, max_weight,
                          REFINE_PASSES, range(len(part)))
        for level, finer in zip(
            reversed(levels), reversed([wg] + [lv.graph for lv in levels[:-1]])
        ):
            part, boundary = project(part, level.fine_to_coarse, boundary)
            boundary = refine(
                finer, part, num_parts, max_weight, REFINE_PASSES, boundary
            )
        # state blobs pickle this order: level 0's visit order, else growth's
        order = levels[0].visit if levels else grown
        return {vids[i]: part[i] for i in order}
