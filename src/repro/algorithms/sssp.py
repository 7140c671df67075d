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

Every step after PEval is the same step — *offer some vertices a
distance, let the bounded kernel settle what improves, publish the
border values that moved* (:meth:`SSSPProgram._relax`) — so IncEval and
the ΔG hooks differ only in where their offers come from. Three small
bindings make the skeleton *this* traversal: the bounded kernel
(``_settle``), what an edge adds to a distance (``_cost``) and when a
distance may derive from an edge (``_depends``);
:class:`~repro.algorithms.bfs.BFSProgram` binds the same three to BFS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Sequence

from repro.algorithms.sequential.dijkstra import INF
from repro.algorithms.sequential.inc_sssp import incremental_sssp
from repro.core.aggregators import MIN, min_union
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

    def _settle(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial,
        offers: Mapping[VertexId, float],
    ) -> tuple[dict[VertexId, float], int]:
        """Bounded kernel: fold every offer that improves ``partial`` into
        it and settle what follows; returns (the changes, work done).
        An offer to a vertex the fragment does not hold is ignored."""
        return incremental_sssp(fragment.graph, partial, offers)

    def _cost(self, weight: float | None) -> float | None:
        """What an edge of stored ``weight`` adds to a distance (``None``:
        the op did not record the weight the edge used to have)."""
        return weight

    def _depends(self, dv: float, offer: float) -> bool:
        """Whether ``dist(v)`` may derive from an in-edge offering ``offer``.

        ``>=`` rather than ``==`` because the fragments are already
        mutated when the closure runs: an edge whose weight was
        *decreased* by a safe op in the same batch may have been tight
        under its old weight (``dist(v) == dist(u) + w_old``), which now
        reads as ``dist(v) > dist(u) + w_new``. At a converged fixpoint
        every unchanged edge satisfies ``dist(v) <= dist(u) + w``, so
        ``>=`` degenerates to the exact tightness test when no weight in
        the batch decreased — the region never over-grows on pure
        deletions.
        """
        return dv >= offer

    def peval(
        self, fragment: Fragment, query: SSSPQuery, params: UpdateParams
    ) -> Partial:
        partial: Partial = {}
        _, settled = self._settle(
            fragment, query, partial, {query.source: 0.0}
        )
        params.charge(settled)
        for v in fragment.border:
            d = partial.get(v, INF)
            if d < INF:
                params.improve(v, d)
        return partial

    def inceval(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial,
        params: UpdateParams, changed: set[VertexId],
    ) -> Partial:
        offers = {v: params.get(v) for v in changed}
        return self._relax(fragment, query, partial, params, offers)

    def _relax(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial,
        params: UpdateParams, offers: Mapping[VertexId, float],
    ) -> Partial:
        """The one step: kernel -> charge -> publish moved border values."""
        updates, settled = self._settle(fragment, query, partial, offers)
        params.charge(settled)
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)
        return partial

    def assemble(
        self, query: SSSPQuery, partials: Sequence[Partial]
    ) -> dict[VertexId, float]:
        return min_union(partials)

    @staticmethod
    def _arcs(fragment: Fragment, op) -> Iterator[tuple]:
        """The stored arcs ``op`` names: both on an undirected graph."""
        yield op.src, op.dst
        if not fragment.graph.directed:
            yield op.dst, op.src

    def on_graph_update(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial,
        params: UpdateParams, delta,
    ) -> Partial:
        """ΔG hook: safe ops can only shorten paths (decrease-only).

        An inserted or cheapened arc ``u -> v`` offers ``dist(u) + cost``
        to ``v``; the bounded kernel repairs the affected region.
        Deletions never arrive here — they are classified unsafe and
        repaired via :meth:`repair_partial`.
        """
        offers: dict[VertexId, float] = {}
        for op in delta:
            if op.kind == "delete":
                continue
            cost = self._cost(op.weight)
            if op.kind == "reweight" and cost == self._cost(op.old_weight):
                continue  # cost-neutral: the arc offers what it always did
            for u, v in self._arcs(fragment, op):
                offer = partial.get(u, INF) + cost
                if offer < offers.get(v, INF):
                    offers[v] = offer
        return self._relax(fragment, query, partial, params, offers)

    def delta_seeds(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial, ops
    ) -> set:
        """Vertices whose distance may have routed through an unsafe op.

        An endpoint is affected only when the lost/lengthened arc was
        *tight* — ``dist(v) == dist(u) + old cost`` — i.e. it could have
        carried a shortest path; a slack arc never did. When the old
        cost is unknown the endpoint is seeded conservatively.
        """
        seeds: set = set()
        for op in ops:
            old = self._cost(
                op.weight if op.kind == "delete" else op.old_weight
            )
            for u, v in self._arcs(fragment, op):
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
                if old is None or dv == partial.get(u, INF) + old:
                    seeds.add(v)
        return seeds

    def invalidated_region(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial,
        seeds: set,
    ) -> set:
        """Closure of ``seeds`` over out-edges a distance :meth:`_depends` on.

        Slack edges carry no dependency, which keeps the region — and
        hence the repair — proportional to the true affected subtree
        instead of the whole reachable set.
        """
        region = set(seeds)
        stack = [v for v in seeds if fragment.graph.has_vertex(v)]
        while stack:
            u = stack.pop()
            du = partial.get(u, INF)
            if du == INF:
                continue
            for v, weight in fragment.graph.iter_out(u):
                if v not in region and self._depends(
                    partial.get(v, INF), du + self._cost(weight)
                ):
                    region.add(v)
                    stack.append(v)
        return region

    def repair_partial(
        self, fragment: Fragment, query: SSSPQuery, partial: Partial,
        params: UpdateParams, region: set,
    ) -> Partial:
        """Re-derive an invalidated region's distances from its boundary.

        Region entries are discarded, then offered the query source's 0
        (if invalidated) and the best in-edge whose tail lies *outside*
        the region — those distances are still trusted. The IncEval
        fixpoint afterwards folds in whatever other fragments re-derive.
        """
        for v in region:
            partial.pop(v, None)
        offers: dict[VertexId, float] = {}
        if query.source in region:
            offers[query.source] = 0.0
        for v in region:
            if not fragment.graph.has_vertex(v):
                continue
            best = offers.get(v, INF)
            for u, weight in fragment.graph.iter_in(v):
                if u not in region:
                    best = min(best, partial.get(u, INF) + self._cost(weight))
            if best < INF:
                offers[v] = best
        return self._relax(fragment, query, partial, params, offers)
