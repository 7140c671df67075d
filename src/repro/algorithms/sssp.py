"""PIE program for single-source shortest paths (the paper's Example 1).

* **PEval** is "our familiar Dijkstra's algorithm" run on the local
  fragment, with an integer/float variable ``x_v`` per border node and
  aggregate function ``min`` declared — the only changes to the textbook
  code.
* **IncEval** is the incremental shortest-path algorithm of Ramalingam &
  Reps, seeded by the border variables whose values decreased (``M_i``).
  It is *bounded*: work tracks |M_i| + |ΔO_i| (settled vertices,
  charged through ``params`` and read back as
  ``result.metrics.work("inceval")``), not |F_i|.
* **Assemble** takes the union of partial results, keeping the minimum
  ``x_v`` per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.algorithms.sequential.dijkstra import INF, dijkstra
from repro.algorithms.sequential.inc_sssp import incremental_sssp
from repro.core.aggregators import MIN
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment

VertexId = Hashable

Partial = dict  # vertex -> best known distance in this fragment


@dataclass(frozen=True)
class SSSPQuery:
    """Shortest distances from ``source`` to every vertex."""

    source: VertexId


class SSSPProgram(PIEProgram[SSSPQuery, Partial, dict]):
    """Dijkstra + incremental SSSP + min-union, as a PIE program."""

    name = "sssp"

    def param_spec(self, query: SSSPQuery) -> ParamSpec:
        return ParamSpec(aggregator=MIN, default=INF)

    def peval(
        self, fragment: Fragment, query: SSSPQuery, params: UpdateParams
    ) -> Partial:
        seeds: dict[VertexId, float] = {}
        if query.source in fragment.graph:
            seeds[query.source] = 0.0
        dist, settled = dijkstra(fragment.graph, seeds)
        params.charge(settled)
        for v in fragment.border:
            d = dist.get(v, INF)
            if d < INF:
                params.improve(v, d)
        return dist

    def inceval(
        self,
        fragment: Fragment,
        query: SSSPQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        decreased = {v: params.get(v) for v in changed}
        updates, settled = incremental_sssp(fragment.graph, partial, decreased)
        params.charge(settled)
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)
        return partial

    def on_graph_update(
        self,
        fragment: Fragment,
        query: SSSPQuery,
        partial: Partial,
        params: UpdateParams,
        delta,
    ) -> Partial:
        """ΔG hook: safe ops can only shorten paths (decrease-only).

        Inserted or weight-decreased edges ``u -> v`` offer
        ``dist(u) + w`` to ``v``; the bounded incremental algorithm
        repairs the affected region. Deletions never arrive here — they
        are classified unsafe and repaired via :meth:`repair_partial`.
        """
        offers: dict[VertexId, float] = {}
        for op in delta:
            if op.kind == "delete":
                continue
            du = partial.get(op.src, INF)
            if du < INF:
                candidate = du + op.weight
                if candidate < offers.get(op.dst, INF):
                    offers[op.dst] = candidate
        updates, settled = incremental_sssp(fragment.graph, partial, offers)
        params.charge(settled)
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)
        return partial

    def delta_seeds(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial, ops
    ) -> set:
        """Vertices whose distance may have routed through an unsafe op.

        An endpoint is affected only when the lost/lengthened edge was
        *tight* — ``dist(dst) == dist(src) + w`` — i.e. it could have
        carried a shortest path; a slack edge never did. When the old
        weight is unknown the endpoint is seeded conservatively. A
        target that vanished from the local graph (pruned mirror) is
        still seeded when a stale partial entry remains — otherwise its
        old distance would leak back through the min-union Assemble.
        """
        seeds: set = set()
        directed = fragment.graph.directed
        for op in ops:
            old_w = op.weight if op.kind == "delete" else op.old_weight
            pairs = [(op.src, op.dst)]
            if not directed:
                pairs.append((op.dst, op.src))
            for u, v in pairs:
                if not fragment.graph.has_vertex(v):
                    # The op pruned this mirror: once it leaves known_by,
                    # no future invalidation can reach this fragment, so
                    # its stale partial entry must be discarded *now* or
                    # it leaks through the min-union Assemble forever.
                    if v in partial:
                        seeds.add(v)
                    continue
                dv = partial.get(v, INF)
                if dv == INF:
                    continue  # never reached: nothing to invalidate
                du = partial.get(u, INF)
                if old_w is None or dv == du + old_w:
                    seeds.add(v)
        return seeds

    def invalidated_region(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial,
        seeds: set,
    ) -> set:
        """Closure of ``seeds`` over *tight* out-edges only.

        A distance can only depend on an invalidated vertex through an
        edge that lies on a shortest path (``dist(v) >= dist(u) + w``);
        slack edges carry no dependency, which keeps the region — and
        hence the repair — proportional to the true affected subtree
        instead of the whole reachable set.

        The test is ``>=`` rather than ``==`` because the fragments are
        already mutated when the closure runs: an edge whose weight was
        *decreased* by a safe op in the same batch may have been tight
        under its old weight (``dist(v) == dist(u) + w_old``), which now
        reads as ``dist(v) > dist(u) + w_new``. At a converged fixpoint
        every unchanged edge satisfies ``dist(v) <= dist(u) + w``, so
        ``>=`` degenerates to the exact tightness test when no weight in
        the batch decreased — the region never over-grows on pure
        deletions.
        """
        region = set(seeds)
        stack = [v for v in seeds if fragment.graph.has_vertex(v)]
        while stack:
            u = stack.pop()
            du = partial.get(u, INF)
            if du == INF:
                continue
            for dst, weight in fragment.graph.iter_out(u):
                if dst in region:
                    continue
                if partial.get(dst, INF) >= du + weight:
                    region.add(dst)
                    stack.append(dst)
        return region

    def repair_partial(
        self,
        fragment: Fragment,
        query: SSSPQuery,
        partial: Partial,
        params: UpdateParams,
        region: set,
    ) -> Partial:
        """Re-derive an invalidated region's distances from its boundary.

        Region entries are discarded, then re-seeded from the query
        source (if invalidated) and from in-edges whose tail lies
        *outside* the region — those distances are still trusted. The
        IncEval fixpoint afterwards folds in whatever other fragments
        re-derive.
        """
        for v in region:
            partial.pop(v, None)
        seeds: dict[VertexId, float] = {}
        if query.source in region and query.source in fragment.graph:
            seeds[query.source] = 0.0
        for v in region:
            if not fragment.graph.has_vertex(v):
                continue
            best = seeds.get(v, INF)
            for src, weight in fragment.graph.iter_in(v):
                if src in region:
                    continue
                du = partial.get(src, INF)
                if du < INF and du + weight < best:
                    best = du + weight
            if best < INF:
                seeds[v] = best
        updates, settled = incremental_sssp(fragment.graph, partial, seeds)
        params.charge(settled)
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)
        return partial

    def assemble(
        self, query: SSSPQuery, partials: Sequence[Partial]
    ) -> dict[VertexId, float]:
        result: dict[VertexId, float] = {}
        for partial in partials:
            for v, d in partial.items():
                if d < result.get(v, INF):
                    result[v] = d
        return result
