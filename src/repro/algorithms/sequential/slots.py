"""Dijkstra and BFS over dense slots — SSSP's and BFS's PEval and IncEval.

The fragment's :class:`~repro.graph.fragment.SlotView` numbers its
vertices ``0..n-1`` and stores each out-row as a list of ``(slot,
weight)``; a distance map is a plain list indexed by slot. Both kernels
take the current distances ``dist`` (INF: not reached), fold in every
seed that improves on it and settle what follows, writing straight into
``dist``. Run on an all-INF list that is the textbook algorithm (PEval);
run on a converged one it is the incremental algorithm of Ramalingam &
Reps for the decrease-only case (IncEval): a slot is queued only when
its offer beats ``dist``, so the work is bounded by the affected region
(|M| + |ΔO|), not by the fragment.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, Sequence

INF = float("inf")


def dijkstra_slots(
    out: Sequence[list], dist: list, seeds: Iterable[tuple[int, float]]
) -> list[int]:
    """Multi-seed Dijkstra from ``(slot, cost)`` seeds into ``dist``.

    The queue is the C ``heapq`` with lazy deletion: a better offer for
    a queued slot is pushed beside the old one and the stale entry is
    skipped when it surfaces. Entries are ``(cost, insertion counter,
    slot)``, so equal costs pop in insertion order. Returns the slots
    whose distance improved, in settle order — each settles once, so
    its length is the work done.
    """
    heap: list[tuple[float, int, int]] = []
    pushed = 0
    for s, cost in seeds:
        if cost < dist[s]:
            dist[s] = cost
            heappush(heap, (cost, pushed, s))
            pushed += 1
    settled: list[int] = []
    settle = settled.append
    while heap:
        cost, _, s = heappop(heap)
        if cost > dist[s]:
            continue  # stale: a better offer was pushed since
        settle(s)
        for t, weight in out[s]:
            offer = cost + weight
            if offer < dist[t]:
                dist[t] = offer
                heappush(heap, (offer, pushed, t))
                pushed += 1
    return settled


def bfs_slots(
    out: Sequence[list],
    dist: list,
    seeds: Iterable[tuple[int, float]],
    max_depth: int | None = None,
) -> tuple[list[int], int]:
    """Multi-seed BFS hop counts from ``(slot, depth)`` seeds into ``dist``.

    Seeds enter the FIFO shallowest first; ``max_depth`` bounds what is
    *accepted* as well as what is expanded, so a seed deeper than it is
    dropped. Returns (the slots whose depth improved, in first-improvement
    order; the dequeues done — a slot improved twice is expanded twice).
    """
    improved: dict[int, None] = {}
    queue: deque[int] = deque()
    for s, d in sorted(seeds, key=itemgetter(1)):
        if max_depth is not None and d > max_depth:
            continue
        if d < dist[s]:
            dist[s] = d
            improved[s] = None
            queue.append(s)
    work = 0
    while queue:
        s = queue.popleft()
        work += 1
        d = dist[s]
        if max_depth is not None and d >= max_depth:
            continue
        nd = d + 1
        for t, _ in out[s]:
            if nd < dist[t]:
                dist[t] = nd
                improved[t] = None
                queue.append(t)
    return list(improved), work
