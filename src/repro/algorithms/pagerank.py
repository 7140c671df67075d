"""PIE program for PageRank (library extension, beyond the demo's six).

Formulated as *accumulative* (push-based) PageRank so that it fits the
monotonic fixed-point model: every vertex accumulates rank mass
``rank(v) = (1-d)/n + d * Σ_{u->v} rank(u)/deg(u)`` via residual
pushing, and all quantities only grow.

Mass pushed across a cut edge is a per-source scalar. The update
parameter ``Slot((v, fid))`` is the cumulative mass fragment ``fid`` has
pushed toward its mirror ``v``: one writer, totals that only grow, so
the stock ``MAX`` aggregator resolves it monotonically and the Assurance
Theorem applies. Routing delivers a slot to ``v``'s owner alone
(:meth:`~repro.graph.fragment.FragmentedGraph.hosts`), which turns the
growth since its last read into residual. ``tolerance`` truncates the
geometric tail to make the fixed point finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.aggregators import MAX
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment, Slot

VertexId = Hashable


@dataclass(frozen=True)
class PageRankQuery:
    """Accumulative PageRank with damping ``damping``.

    ``tolerance`` is the residual cutoff: mass below it is dropped,
    bounding the error of every rank by ``tolerance * n`` in total.
    """

    damping: float = 0.85
    tolerance: float = 1e-6


@dataclass
class PRPartial:
    """Worker-local accumulated ranks, residuals and push bookkeeping."""

    rank: dict = field(default_factory=dict)
    residual: dict = field(default_factory=dict)
    #: mass pushed toward each mirror, cumulative (what we publish).
    pushed_out: dict = field(default_factory=dict)
    #: per incoming slot, the cumulative mass already turned into residual.
    consumed: dict = field(default_factory=dict)


class PageRankProgram(PIEProgram[PageRankQuery, PRPartial, dict]):
    """Residual-push PageRank over fragments, as a PIE program."""

    name = "pagerank"

    def __init__(self, total_vertices: int) -> None:
        #: |V| of the global graph (needed for the teleport term).
        self.total_vertices = total_vertices

    def param_spec(self, query: PageRankQuery) -> ParamSpec:
        return ParamSpec(aggregator=MAX, default=0.0)

    def declare_params(
        self, fragment: Fragment, query: PageRankQuery, params: UpdateParams
    ) -> None:
        params.declare(Slot((v, fragment.fid)) for v in fragment.mirrors)

    def _drain(
        self,
        fragment: Fragment,
        query: PageRankQuery,
        partial: PRPartial,
        params: UpdateParams,
    ) -> PRPartial:
        """Push residual mass until everything local is below tolerance,
        charge the pushes and publish the mirrors pushed toward."""
        d = query.damping
        tol = query.tolerance
        owned = fragment.owned
        out_neighbors = fragment.graph.out_neighbors
        rank = partial.rank
        residual = partial.residual
        pushed_out = partial.pushed_out
        worklist = [v for v, r in residual.items() if r > tol and v in owned]
        pushes = 0
        touched: set = set()
        adjacency: dict = {}  # a vertex pushes ~2.4 times per drain
        while worklist:
            v = worklist.pop()
            res = residual[v]
            if res <= tol:
                continue
            residual[v] = 0.0
            rank[v] = rank.get(v, 0.0) + res
            pushes += 1
            out = adjacency.get(v)
            if out is None:
                out = adjacency[v] = out_neighbors(v)
            if not out:
                continue  # dangling: mass retires (uniform spread omitted)
            share = d * res / len(out)
            for u in out:
                if u in owned:
                    before = residual.get(u, 0.0)
                    after = residual[u] = before + share
                    if before <= tol < after:
                        worklist.append(u)
                else:
                    pushed_out[u] = pushed_out.get(u, 0.0) + share
                    touched.add(u)
        params.charge(pushes)
        fid = fragment.fid
        for u in touched:
            params.improve(Slot((u, fid)), pushed_out[u])
        return partial

    def peval(
        self, fragment: Fragment, query: PageRankQuery, params: UpdateParams
    ) -> PRPartial:
        partial = PRPartial()
        teleport = (1.0 - query.damping) / max(1, self.total_vertices)
        for v in fragment.owned:
            partial.residual[v] = teleport
        return self._drain(fragment, query, partial, params)

    def inceval(
        self,
        fragment: Fragment,
        query: PageRankQuery,
        partial: PRPartial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> PRPartial:
        residual = partial.residual
        consumed = partial.consumed
        for slot in changed:
            v = slot[0]
            if v not in fragment.owned:
                continue  # only the owner turns incoming mass into rank
            seen = consumed.get(slot, 0.0)  # < total: MAX just raised it
            consumed[slot] = total = params.get(slot)
            residual[v] = residual.get(v, 0.0) + (total - seen)
        return self._drain(fragment, query, partial, params)

    def assemble(
        self, query: PageRankQuery, partials: Sequence[PRPartial]
    ) -> dict[VertexId, float]:
        result: dict[VertexId, float] = {}
        for partial in partials:
            for v, r in partial.rank.items():
                # Residual below tolerance is folded in for accuracy.
                result[v] = max(
                    result.get(v, 0.0), r + partial.residual.get(v, 0.0)
                )
        return result
