"""PIE program for PageRank (library extension, beyond the demo's six).

Formulated as *accumulative* (push-based) PageRank so that it fits the
monotonic fixed-point model: every vertex accumulates rank mass
``rank(v) = (1-d)/n + d * Σ_{u->v} rank(u)/deg(u)`` via residual
pushing, and all quantities only grow.

The update parameter of a border vertex ``v`` is a map
``{fragment id: cumulative mass pushed toward v by that fragment}``.
Cumulative totals are monotonically non-decreasing per fragment, so the
aggregate function (per-key max) is monotonic and the Assurance Theorem
applies; the ``tolerance`` truncates the geometric tail to make the
fixed point finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.core.aggregators import Aggregator
from repro.core.partial_order import PartialOrder
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment

VertexId = Hashable


def _push_merge(cur: object, new: object) -> object:
    merged = dict(cur)  # type: ignore[call-overload]
    for fid, total in new.items():  # type: ignore[union-attr]
        if total > merged.get(fid, 0.0):
            merged[fid] = total
    return merged


def _push_grows(old: object, new: object) -> bool:
    return all(
        new.get(fid, 0.0) >= total  # type: ignore[union-attr]
        for fid, total in old.items()  # type: ignore[union-attr]
    )


#: Per-source-fragment cumulative mass; totals only grow.
PUSH_ACCUMULATE = Aggregator(
    "push-accumulate",
    _push_merge,
    PartialOrder("per-source-growing", _push_grows),
)


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
    #: mass already consumed from each (mirror source fid) pair.
    consumed: dict = field(default_factory=dict)


class PageRankProgram(PIEProgram[PageRankQuery, PRPartial, dict]):
    """Residual-push PageRank over fragments, as a PIE program."""

    name = "pagerank"

    def __init__(self, total_vertices: int) -> None:
        #: |V| of the global graph (needed for the teleport term).
        self.total_vertices = total_vertices

    def param_spec(self, query: PageRankQuery) -> ParamSpec:
        return ParamSpec(aggregator=PUSH_ACCUMULATE, default=None)

    def _drain(
        self, fragment: Fragment, query: PageRankQuery, partial: PRPartial
    ) -> int:
        """Push residual mass until everything local is below tolerance."""
        d = query.damping
        worklist = [
            v
            for v, res in partial.residual.items()
            if res > query.tolerance and v in fragment.owned
        ]
        pushes = 0
        while worklist:
            v = worklist.pop()
            res = partial.residual.get(v, 0.0)
            if res <= query.tolerance:
                continue
            partial.residual[v] = 0.0
            partial.rank[v] = partial.rank.get(v, 0.0) + res
            pushes += 1
            out = fragment.graph.out_neighbors(v)
            if not out:
                continue  # dangling: mass retires (uniform spread omitted)
            share = d * res / len(out)
            for u in out:
                if u in fragment.owned:
                    before = partial.residual.get(u, 0.0)
                    partial.residual[u] = before + share
                    if before <= query.tolerance < before + share:
                        worklist.append(u)
                else:
                    partial.pushed_out[u] = (
                        partial.pushed_out.get(u, 0.0) + share
                    )
        return pushes

    def _publish(
        self, fragment: Fragment, partial: PRPartial, params: UpdateParams
    ) -> None:
        for v, total in partial.pushed_out.items():
            current = params.get(v) or {}
            if total > current.get(fragment.fid, 0.0):
                params.set(v, _push_merge(current, {fragment.fid: total}))

    def peval(
        self, fragment: Fragment, query: PageRankQuery, params: UpdateParams
    ) -> PRPartial:
        partial = PRPartial()
        teleport = (1.0 - query.damping) / max(1, self.total_vertices)
        for v in fragment.owned:
            partial.residual[v] = teleport
        pushes = self._drain(fragment, query, partial)
        params.charge(pushes)
        self._publish(fragment, partial, params)
        return partial

    def inceval(
        self,
        fragment: Fragment,
        query: PageRankQuery,
        partial: PRPartial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> PRPartial:
        for v in changed:
            if v not in fragment.owned:
                continue  # only the owner turns incoming mass into rank
            incoming = params.get(v) or {}
            for fid, total in incoming.items():
                if fid == fragment.fid:
                    continue
                seen = partial.consumed.get((v, fid), 0.0)
                if total > seen:
                    partial.residual[v] = (
                        partial.residual.get(v, 0.0) + (total - seen)
                    )
                    partial.consumed[(v, fid)] = total
        pushes = self._drain(fragment, query, partial)
        params.charge(pushes)
        self._publish(fragment, partial, params)
        return partial

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
