"""PIE program for PageRank (library extension, beyond the demo's six).

Formulated as *accumulative* (push-based) PageRank so that it fits the
monotonic fixed-point model: every vertex accumulates rank mass
``rank(v) = (1-d)/n + d * Σ_{u->v} rank(u)/deg(u)`` via residual
pushing, and all quantities only grow.

A fragment computes over dense local slots (plain float lists) and
publishes one column per owner: ``Slot((vertices, fid))`` is the tuple
of cumulative masses fragment ``fid`` has pushed toward ``vertices``,
its mirrors of one other fragment. One writer, and every total only
grows, so each newer tuple is lexicographically larger: the stock
``MAX`` keeps the newest and the Assurance Theorem applies. Routing
delivers a column to its owner alone (a :class:`Slot`'s route in
:class:`~repro.graph.fragment.Routes` is its owner and its writer),
which turns each component's growth since its last read into residual.
``tolerance`` truncates the geometric tail to make the fixed point
finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add
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
    A finite ``0 <= damping < 1`` and a finite ``tolerance > 0`` are
    required: outside them the push never ends or means nothing.
    """

    damping: float = 0.85
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.damping) and 0 <= self.damping < 1):
            raise ValueError(f"damping {self.damping!r} is not in [0, 1)")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(
                f"tolerance must be finite and > 0, got {self.tolerance!r}"
            )


@dataclass
class PRPartial:
    """Worker-local ranks, residuals and push bookkeeping over slots."""

    #: owned vertices (slots ``0..len(rank)-1``), then each column's mirrors.
    ids: list
    #: per owned slot: (owned out-slots, mirror positions, out-degree).
    adj: list
    rank: list
    residual: list
    #: mass pushed toward each mirror position, cumulative (what we publish).
    pushed_out: list
    #: ``(slot, start, end)``: the column and its range of ``pushed_out``.
    columns: list
    #: owned vertex -> slot.
    index: dict
    #: per incoming column, the cumulative masses already turned into residual.
    consumed: dict


def _columns(fragment: Fragment) -> list[Slot]:
    """``fragment.mirrors`` grouped by owner (mirror-dict order within a
    group), one column key per owner, in owner order."""
    groups: dict[int, list] = {}
    for v, owner in fragment.mirrors.items():
        groups.setdefault(owner, []).append(v)
    return [Slot((tuple(g), fragment.fid)) for _, g in sorted(groups.items())]


class PageRankProgram(PIEProgram[PageRankQuery, PRPartial, dict]):
    """Residual-push PageRank over fragments, as a PIE program."""

    name = "pagerank"

    def __init__(self, total_vertices: int) -> None:
        #: |V| of the global graph (needed for the teleport term).
        self.total_vertices = total_vertices

    def param_spec(self, query: PageRankQuery) -> ParamSpec:
        return ParamSpec(aggregator=MAX, default=None)

    def declare_params(
        self, fragment: Fragment, query: PageRankQuery, params: UpdateParams
    ) -> None:
        # The writer starts from zeros, so a column nobody pushed toward
        # is never shipped; the owner's copy starts at None (MAX's top).
        slots = _columns(fragment)
        params.declare(slots, {s: (0.0,) * len(s[0]) for s in slots})

    def _drain(
        self, query: PageRankQuery, partial: PRPartial, params: UpdateParams
    ) -> PRPartial:
        """Push residual mass until everything local is below tolerance,
        charge the pushes and publish every column (MAX drops the
        unchanged ones)."""
        d = query.damping
        tol = query.tolerance
        adj = partial.adj
        rank = partial.rank
        residual = partial.residual
        pushed_out = partial.pushed_out
        worklist = [i for i, r in enumerate(residual) if r > tol]
        pushes = 0
        while worklist:
            i = worklist.pop()
            res = residual[i]
            if res <= tol:
                continue
            residual[i] = 0.0
            rank[i] += res
            pushes += 1
            local, remote, degree = adj[i]
            if not degree:
                continue  # dangling: mass retires (uniform spread omitted)
            share = d * res / degree
            for j in local:
                before = residual[j]
                after = residual[j] = before + share
                if before <= tol < after:
                    worklist.append(j)
            for p in remote:
                pushed_out[p] += share
        params.charge(pushes)
        for slot, start, end in partial.columns:
            params.improve(slot, tuple(pushed_out[start:end]))
        return partial

    def peval(
        self, fragment: Fragment, query: PageRankQuery, params: UpdateParams
    ) -> PRPartial:
        ids = list(fragment.owned)
        index = {v: i for i, v in enumerate(ids)}
        n = len(ids)
        columns = []
        for slot in _columns(fragment):
            columns.append((slot, len(ids) - n, len(ids) - n + len(slot[0])))
            ids.extend(slot[0])
        position = {v: p for p, v in enumerate(ids[n:])}
        out_neighbors = fragment.graph.out_neighbors
        adj = []
        for v in ids[:n]:
            out = out_neighbors(v)
            mine = [index[u] for u in out if u in index]
            theirs = [position[u] for u in out if u not in index]
            adj.append((mine, theirs, len(out)))
        teleport = (1.0 - query.damping) / max(1, self.total_vertices)
        partial = PRPartial(
            ids, adj, [0.0] * n, [teleport] * n, [0.0] * len(position),
            columns, index, {},
        )
        return self._drain(query, partial, params)

    def inceval(
        self,
        fragment: Fragment,
        query: PageRankQuery,
        partial: PRPartial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> PRPartial:
        residual = partial.residual
        index = partial.index
        consumed = partial.consumed
        for slot in changed:
            vertices, writer = slot
            if writer == fragment.fid:
                continue  # only the owner turns incoming mass into rank
            seen = consumed.get(slot, repeat(0.0))  # ≤ totals, per component
            consumed[slot] = totals = params.get(slot)
            for v, total, before in zip(vertices, totals, seen):
                residual[index[v]] += total - before
        return self._drain(query, partial, params)

    def assemble(
        self, query: PageRankQuery, partials: Sequence[PRPartial]
    ) -> dict[VertexId, float]:
        result: dict[VertexId, float] = {}
        for partial in partials:
            # Residual below tolerance is folded in for accuracy.
            result.update(
                zip(partial.ids, map(add, partial.rank, partial.residual))
            )
        return result
