"""Refinement phase: Fiduccia–Mattheyses-style boundary moves.

After projecting a partition from a coarse level to a finer one, boundary
vertices may sit on the wrong side. Each refinement pass scans boundary
vertices in ascending id order, computes for every adjacent part the
*gain* (external edge weight toward that part minus internal edge
weight), and greedily applies positive-gain moves that keep part weights
within the balance tolerance. A vertex with no neighbor in another part
cannot move, so a pass scans only its seed and the later neighbors of the
vertices it moves: exactly the moves of a sweep over every vertex.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress

from repro.partition.multilevel.coarsen import WorkGraph


def refine(
    wg: WorkGraph,
    part: list[int],
    num_parts: int,
    max_weight: float,
    passes: int,
    seed,
) -> set[int]:
    """Run up to ``passes`` greedy boundary-improvement passes on ``part``
    in place; ``seed``, and the set returned, hold the boundary."""
    adj, vweight = wg.adj, wg.vweight
    part_weight = [0.0] * num_parts
    for v, p in enumerate(part):
        part_weight[p] += vweight[v]

    for _ in range(passes):
        heap = sorted(seed)  # a sorted list is a heap
        queued, seed, moved = set(heap), set(), False
        while heap:
            v = heappop(heap)
            nbrs = adj[v]
            home = part[v]
            # Connection strength to each adjacent part.
            strength: dict[int, float] = {}
            for u, w in nbrs.items():
                p = part[u]
                strength[p] = strength.get(p, 0) + w
            if strength.keys() <= {home}:
                continue  # interior: nothing to move to
            seed.add(v)
            internal = strength.get(home, 0)
            best_part, best_gain = home, 0.0
            weight = vweight[v]
            for p, ext in strength.items():
                if p == home or part_weight[p] + weight > max_weight:
                    continue
                gain = ext - internal
                if gain > best_gain:
                    best_gain, best_part = gain, p
            if best_part != home:
                part[v] = best_part
                part_weight[home] -= weight
                part_weight[best_part] += weight
                moved = True
                seed.update(nbrs)
                for u in nbrs:  # may now be on the boundary: scan it too
                    if u > v and u not in queued:
                        queued.add(u)
                        heappush(heap, u)
        if not moved:
            break
    return seed


def project(
    part: list[int], fine_to_coarse: list[int], boundary: set[int]
) -> tuple[list[int], list[int]]:
    """Pull a coarse-level assignment back to the finer level, with the fine
    vertices (ascending) whose coarse vertex is in ``boundary``."""
    return list(map(part.__getitem__, fine_to_coarse)), list(compress(
        range(len(fine_to_coarse)), map(boundary.__contains__, fine_to_coarse)
    ))
