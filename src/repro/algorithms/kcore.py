"""PIE program for k-core decomposition (library extension).

Distributed core numbers via Montresor-style convergent H-index
estimates: every vertex starts at its degree and repeatedly lowers its
estimate to the h-index of its neighbors' estimates. Estimates only
decrease (aggregate function ``min``), so the Assurance Theorem applies
and the engine's monotonicity checker can verify every write.

* **PEval** — iterate H-index rounds to the local fixed point, treating
  mirror estimates as optimistic external values.
* **IncEval** — re-iterate only from the neighbors of mirrors whose
  estimates dropped (bounded by the affected region).
* **Assemble** — owners' final estimates are the core numbers.

Requires a *symmetric* edge set (both directions stored), since a
fragment only sees the out-edges of its owned vertices; all bundled
traversal generators satisfy this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.algorithms.sequential.kcore_seq import (
    converge_h_index,
    h_index_round,
)
from repro.core.aggregators import MIN, min_union
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment

VertexId = Hashable

Partial = dict  # owned vertex -> current core estimate


@dataclass(frozen=True)
class KCoreQuery:
    """Core numbers of every vertex (no parameters)."""


class KCoreProgram(PIEProgram[KCoreQuery, Partial, dict]):
    """Convergent H-index k-core as a PIE program."""

    name = "kcore"

    def param_spec(self, query: KCoreQuery) -> ParamSpec:
        # None = "estimate unknown": the first concrete estimate wins.
        return ParamSpec(aggregator=MIN, default=None)

    def _external(
        self, fragment: Fragment, params: UpdateParams
    ) -> "_MirrorEstimates":
        return _MirrorEstimates(fragment.mirrors, params)

    def _export(
        self, fragment: Fragment, partial: Partial, params: UpdateParams,
        moved,
    ) -> None:
        """Publish the inner-border estimates among ``moved``."""
        inner = fragment.inner_border
        for v in moved:
            if v in inner:
                params.improve(v, partial[v])

    def peval(
        self, fragment: Fragment, query: KCoreQuery, params: UpdateParams
    ) -> Partial:
        partial: Partial = {
            v: sum(1 for p in fragment.graph.iter_neighbors(v) if p != v)
            for v in fragment.owned
        }
        _, work = converge_h_index(
            fragment.graph, partial, external=self._external(fragment, params)
        )
        params.charge(work)
        self._export(fragment, partial, params, fragment.inner_border)
        return partial

    def inceval(
        self,
        fragment: Fragment,
        query: KCoreQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        dirty = {
            p
            for m in changed
            if m in fragment.graph
            for p in fragment.graph.iter_neighbors(m)
            if p in partial
        }
        moved = self._settle(fragment, partial, params, dirty)
        self._export(fragment, partial, params, moved)
        return partial

    def classify_update(self, query: KCoreQuery, op) -> bool:
        """k-core's natural direction is *deletion*: estimates only drop.

        Removing an edge can only lower core numbers, so the old
        estimates stay valid upper bounds and the H-index iteration
        reconverges from them — deletions are the monotone-safe arm.
        An insertion can *raise* core numbers, which the MIN aggregator
        cannot express incrementally: unsafe, repaired by resetting the
        affected component to degree bounds. Weights never matter.
        """
        return op.kind != "insert"

    def _settle(
        self, fragment: Fragment, partial: Partial, params: UpdateParams,
        dirty: set,
    ) -> dict:
        """Dirty-driven H-index rounds to the local fixed point
        (charged to ``params``); returns the estimates that moved."""
        external = self._external(fragment, params)
        total_work = 0
        moved: dict = {}
        while dirty:
            changes, work = h_index_round(
                fragment.graph, partial, external=external, vertices=dirty
            )
            total_work += work
            if not changes:
                break
            partial.update(changes)
            moved.update(changes)
            dirty = {
                p
                for v in changes
                for p in fragment.graph.iter_neighbors(v)
                if p in partial
            }
        params.charge(total_work)
        return moved

    def deletion_region(
        self, fragment: Fragment, partial: Partial, params: UpdateParams,
        ops,
    ) -> tuple[dict, set]:
        """Degree-threshold triage of deletion endpoints.

        Mirrors CC's connectivity triage: prove most deletions
        harmless before seeding any recomputation. For each locally
        owned endpoint ``v`` with estimate ``k``:

        * ``degree < k`` — the estimate must drop at least to the
          degree bound: cap it and dirty ``v`` plus its neighbors (the
          drop can cascade).
        * ``supporters < k`` — fewer than ``k`` remaining neighbors
          hold an estimate ``>= k`` (externals default optimistic, as
          in the H-index rounds), so the next round lowers ``v``:
          dirty ``v`` alone; the settle loop spreads any cascade.
        * otherwise — at least ``k`` neighbors still support level
          ``k``, so the H-index of ``v`` is exactly ``k`` again:
          provably unaffected, no seeds (a non-core deletion yields an
          empty region and zero repair work).

        Returns ``(caps, dirty)``: estimate caps to apply and the seed
        set for the settle loop.
        """
        external = self._external(fragment, params)
        caps: dict = {}
        dirty: set = set()
        for op in ops:
            if op.kind != "delete":
                continue
            for v in (op.src, op.dst):
                if v not in partial or not fragment.graph.has_vertex(v):
                    continue
                k = caps.get(v, partial[v])
                degree = 0
                supporters = 0
                for p in fragment.graph.iter_neighbors(v):
                    if p == v:
                        continue
                    degree += 1
                    est = partial.get(p)
                    if est is None:
                        est = external.get(p, float("inf"))
                    if est >= k:
                        supporters += 1
                if degree < k:
                    caps[v] = degree
                    dirty.add(v)
                    dirty.update(
                        p
                        for p in fragment.graph.iter_neighbors(v)
                        if p in partial
                    )
                elif supporters < k:
                    dirty.add(v)
        return caps, dirty

    def on_graph_update(
        self,
        fragment: Fragment,
        query: KCoreQuery,
        partial: Partial,
        params: UpdateParams,
        delta,
    ) -> Partial:
        """ΔG hook for the safe arm: deletions (reweights are no-ops).

        :meth:`deletion_region` triages each deleted edge's endpoints —
        capping estimates that fell below the degree bound and seeding
        only the vertices that can actually drop — then the H-index
        iteration reconverges downward from the still-valid upper
        bounds.
        """
        caps, dirty = self.deletion_region(fragment, partial, params, delta)
        capped = {}
        for v, cap in caps.items():
            if partial[v] > cap:
                partial[v] = capped[v] = cap
        moved = self._settle(fragment, partial, params, dirty)
        self._export(fragment, partial, params, {**capped, **moved})
        return partial

    def delta_seeds(
        self, fragment: Fragment, query: KCoreQuery, partial: Partial, ops
    ) -> set:
        """Both endpoints of each inserted edge (degrees are mutual)."""
        seeds: set = set()
        for op in ops:
            for v in (op.src, op.dst):
                if fragment.graph.has_vertex(v) or v in partial:
                    seeds.add(v)
        return seeds

    def repair_partial(
        self,
        fragment: Fragment,
        query: KCoreQuery,
        partial: Partial,
        params: UpdateParams,
        region: set,
    ) -> Partial:
        """Re-derive the invalidated component from degree upper bounds.

        Insertions can raise core numbers anywhere in the containing
        component, so the region (its whole local closure — the base
        :meth:`invalidated_region` over a symmetric edge set) restarts
        from each vertex's degree, exactly as PEval would, and iterates
        down. Mirror estimates in the region were reset to ``None`` and
        are treated as optimistic until the fixpoint refines them.
        """
        dirty: set = set()
        for v in region:
            if v in partial and fragment.graph.has_vertex(v):
                partial[v] = sum(
                    1 for p in fragment.graph.iter_neighbors(v) if p != v
                )
                dirty.add(v)
        moved = self._settle(fragment, partial, params, dirty)
        self._export(fragment, partial, params, dirty | moved.keys())
        return partial

    def assemble(
        self, query: KCoreQuery, partials: Sequence[Partial]
    ) -> dict[VertexId, int]:
        return min_union(partials)


class _MirrorEstimates:
    """The known mirror estimates (``None`` is unknown), read from the
    parameter store one lookup at a time instead of copied per call."""

    __slots__ = ("mirrors", "params")

    def __init__(self, mirrors, params: UpdateParams) -> None:
        self.mirrors = mirrors
        self.params = params

    def get(self, v: VertexId, default=None):
        value = self.params.get(v) if v in self.mirrors else None
        return default if value is None else value
