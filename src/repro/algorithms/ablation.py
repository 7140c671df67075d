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

from repro.algorithms.sequential.dijkstra import INF, dijkstra
from repro.algorithms.sssp import Partial, SSSPProgram, SSSPQuery
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

    # This program *is* the unbounded strawman grape-lint exists to catch;
    # its findings are the experiment, not bugs.
    # grape-lint: disable=GRP203
    def inceval(
        self,
        fragment: Fragment,
        query: SSSPQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        # Seeds: the source (if local) plus every border assumption.
        seeds: dict[VertexId, float] = {}
        if query.source in fragment.graph:
            seeds[query.source] = 0.0
        for v in fragment.border:
            d = params.get(v)
            if d < INF:
                seeds[v] = d
        dist, settled = dijkstra(fragment.graph, seeds)
        params.charge(settled)
        for v, d in dist.items():
            if d < partial.get(v, INF):
                partial[v] = d
        for v in fragment.border:  # grape-lint: disable=GRP202
            d = partial.get(v, INF)
            if d < INF:
                params.improve(v, d)
        return partial
