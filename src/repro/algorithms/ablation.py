"""Ablation variants of PIE programs for the design-choice experiments.

DESIGN.md §6 calls out the design choices the paper credits for GRAPE's
performance; these variants disable one choice at a time so benchmarks
can quantify it:

* :class:`SSSPRecomputeProgram` — IncEval re-runs PEval (full Dijkstra)
  instead of the bounded incremental algorithm. Same fixed point, same
  answers; the per-round cost becomes Θ(|F_i|) instead of
  Θ(|M_i| + |ΔO_i|) (experiment E5).
"""

from __future__ import annotations

from typing import Hashable

from repro.algorithms.sequential.slots import INF, dijkstra_slots
from repro.algorithms.sssp import (
    SlotPartial,
    SSSPProgram,
    SSSPQuery,
    slot_layout,
)
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment

VertexId = Hashable


class SSSPRecomputeProgram(SSSPProgram):
    """SSSP with IncEval = "throw away and re-run Dijkstra".

    This is the unbounded strawman the paper's bounded-IncEval argument
    is made against: correctness is unchanged, but every round pays for
    the whole fragment.
    """

    name = "sssp-recompute"

    # IncEval ignores ``changed`` and re-runs Dijkstra from every border
    # value: the unbounded strawman E5 measures against, on purpose.
    def inceval(
        self,
        fragment: Fragment,
        query: SSSPQuery,
        partial: SlotPartial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> SlotPartial:
        view = slot_layout(fragment, partial)
        index, dist = view.index, partial.dist
        # Seeds: the source (if local) plus every border assumption.
        seeds: dict[VertexId, float] = {}
        if query.source in fragment.graph:
            seeds[query.source] = 0.0
        for v in fragment.border:
            d = params.get(v)
            if d < INF:
                seeds[v] = d
        fresh = [INF] * len(dist)
        settled = dijkstra_slots(
            view.out, fresh, [(index[v], d) for v, d in seeds.items()]
        )
        params.charge(len(settled))
        for s in settled:
            if fresh[s] < dist[s]:
                dist[s] = fresh[s]
        # the whole border is re-offered: part of the strawman
        for v in fragment.border:
            d = dist[index[v]]
            if d < INF:
                params.improve(v, d)
        return partial
