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
border values that moved* (:meth:`SSSPProgram._step`) — so IncEval and
the ΔG hooks differ only in where their offers come from. Three small
bindings make the skeleton *this* traversal: the bounded kernel
(``_settle``), what an edge adds to a distance (``_cost``) and when a
distance may derive from an edge (``_depends``);
:class:`~repro.algorithms.bfs.BFSProgram` binds the same three to BFS.

Every phase computes in slot space: over the fragment's
:class:`~repro.graph.fragment.SlotView` (dense local vertex numbers and
``(slot, weight)`` rows, kept in step with ΔG), with the partial a
:class:`SlotPartial` — a list of distances beside the view's ids. The
parameter store is declared from the view's border slots; IncEval reads
its seeds by the store positions its mail changed, and the improved
slots are published in one call
(:meth:`~repro.core.update_params.UpdateParams.improve_slots`).
Messages, supersteps and work are what the vertex-keyed program
produced.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Mapping
from dataclasses import dataclass
from itertools import compress
from math import isfinite
from typing import Hashable, Iterator, Sequence

from repro.algorithms.sequential.slots import INF, dijkstra_slots
from repro.core.aggregators import MIN, min_union
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment, SlotView

VertexId = Hashable


class SlotPartial(Mapping):
    """A fragment's distances over its slot view: ``dist[s]`` belongs to
    ``ids[s]``. Read as a Mapping it holds the finite entries only —
    ``{vertex: distance}`` for every vertex this fragment reached — so
    Assemble's ``min_union`` and answer comparisons never see slots."""

    __slots__ = ("ids", "dist")

    def __init__(self, ids: list, dist: list) -> None:
        self.ids = ids
        self.dist = dist

    def _reached(self):
        # distances are sums of weights >= 0 (NaN is refused): finite
        # means reached
        return map(isfinite, self.dist)

    def __getitem__(self, v: VertexId) -> float:
        # O(n): the programs read ``dist`` by slot; this serves callers
        # that look one vertex up (tests, debugging)
        return dict(self.items())[v]

    def __iter__(self) -> Iterator[VertexId]:
        return compress(self.ids, self._reached())

    def __len__(self) -> int:
        return sum(self._reached())

    def items(self) -> ItemsView:
        return _Reached(self)

    def __repr__(self) -> str:
        return f"SlotPartial({dict(self.items())!r})"


class _Reached(ItemsView):
    """``(vertex, distance)`` pairs of a :class:`SlotPartial`, slot order."""

    __slots__ = ()

    def __iter__(self):
        partial = self._mapping
        pairs = zip(partial.ids, partial.dist)
        if INF in partial.dist:  # a C scan; most partials reach every slot
            return compress(pairs, partial._reached())
        return pairs


def slot_layout(fragment: Fragment, partial: SlotPartial) -> SlotView:
    """The fragment's slot view, with ``partial`` laid out over it.

    A partial computed here shares the view's ``ids`` list and only
    needs INF for the slots ΔG appended since. A pickled copy of one
    (state pushed back by resume or recovery) whose ids are a prefix
    of the view's adopts the view's list; anything else (a fresh worker
    pool, a checkpoint restored onto rebuilt fragments) is re-laid by
    vertex id, once.
    """
    view = fragment.slot_view()
    ids = view.ids
    if partial.ids is not ids:
        if partial.ids != ids[: len(partial.ids)]:
            at = dict(zip(partial.ids, partial.dist))
            partial.dist = [at.get(v, INF) for v in ids]
        partial.ids = ids
    missing = len(ids) - len(partial.dist)
    if missing:
        partial.dist.extend([INF] * missing)
    return view


def _at(view: SlotView, partial: SlotPartial, v: VertexId) -> float:
    """``v``'s distance (INF for a vertex the fragment never held)."""
    s = view.index.get(v)
    return INF if s is None else partial.dist[s]


@dataclass(frozen=True)
class SSSPQuery:
    """Shortest distances from ``source`` to every vertex."""

    source: VertexId


class SSSPProgram(PIEProgram[SSSPQuery, SlotPartial, dict]):
    """Dijkstra + incremental SSSP + min-union, as a PIE program."""

    name = "sssp"

    def param_spec(self, query: SSSPQuery) -> ParamSpec:
        return ParamSpec(aggregator=MIN, default=INF)

    def _settle(
        self, out: list, dist: list, seeds: list, query: SSSPQuery
    ) -> tuple[list[int], int]:
        """Bounded kernel: fold every ``(slot, offer)`` seed that improves
        ``dist`` into it and settle what follows; returns (the improved
        slots, work done)."""
        settled = dijkstra_slots(out, dist, seeds)
        return settled, len(settled)

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

    def declare_params(
        self, fragment: Fragment, query: SSSPQuery, params: UpdateParams
    ) -> None:
        params.declare_border(fragment.slot_view())

    def peval(
        self, fragment: Fragment, query: SSSPQuery, params: UpdateParams
    ) -> SlotPartial:
        view = fragment.slot_view()
        partial = SlotPartial(view.ids, [INF] * len(view.ids))
        return self._relax(
            fragment, view, query, partial, params, [(query.source, 0.0)]
        )

    def inceval(
        self, fragment: Fragment, query: SSSPQuery, partial: SlotPartial,
        params: UpdateParams, changed: set[VertexId],
    ) -> SlotPartial:
        view = slot_layout(fragment, partial)
        seeds = params.received(view, fragment.graph.has_vertex)
        return self._step(view, query, partial, params, seeds)

    def _relax(
        self, fragment: Fragment, view: SlotView, query: SSSPQuery,
        partial: SlotPartial, params: UpdateParams,
        offers: Iterable[tuple[VertexId, float]],
    ) -> SlotPartial:
        """:meth:`_step` from ``(vertex, distance)`` offers; an offer to
        a vertex the fragment does not hold is ignored (a border slot's
        vertex always is held)."""
        index, border = view.index, view.border
        held = fragment.graph.has_vertex
        seeds = [
            (s, d) for v, d in offers
            if (s := index.get(v)) is not None and (border[s] or held(v))
        ]
        return self._step(view, query, partial, params, seeds)

    def _step(
        self, view: SlotView, query: SSSPQuery, partial: SlotPartial,
        params: UpdateParams, seeds: list,
    ) -> SlotPartial:
        """The one step: kernel -> charge -> publish moved border values."""
        dist = partial.dist
        improved, work = self._settle(view.out, dist, seeds, query)
        params.charge(work)
        params.improve_slots(view, improved, dist)
        return partial

    def assemble(
        self, query: SSSPQuery, partials: Sequence[SlotPartial]
    ) -> dict[VertexId, float]:
        return min_union(partials)

    @staticmethod
    def _arcs(fragment: Fragment, op) -> Iterator[tuple]:
        """The stored arcs ``op`` names: both on an undirected graph."""
        yield op.src, op.dst
        if not fragment.graph.directed:
            yield op.dst, op.src

    def on_graph_update(
        self, fragment: Fragment, query: SSSPQuery, partial: SlotPartial,
        params: UpdateParams, delta,
    ) -> SlotPartial:
        """ΔG hook: safe ops can only shorten paths (decrease-only).

        An inserted or cheapened arc ``u -> v`` offers ``dist(u) + cost``
        to ``v``; the bounded kernel repairs the affected region.
        Deletions never arrive here — they are classified unsafe and
        repaired via :meth:`repair_partial`.
        """
        view = slot_layout(fragment, partial)
        offers: dict[VertexId, float] = {}
        for op in delta:
            if op.kind == "delete":
                continue
            cost = self._cost(op.weight)
            if op.kind == "reweight" and cost == self._cost(op.old_weight):
                continue  # cost-neutral: the arc offers what it always did
            for u, v in self._arcs(fragment, op):
                offer = _at(view, partial, u) + cost
                if offer < offers.get(v, INF):
                    offers[v] = offer
        return self._relax(
            fragment, view, query, partial, params, offers.items()
        )

    def delta_seeds(
        self, fragment: Fragment, query: SSSPQuery, partial: SlotPartial, ops
    ) -> set:
        """Vertices whose distance may have routed through an unsafe op.

        An endpoint is affected only when the lost/lengthened arc was
        *tight* — ``dist(v) == dist(u) + old cost`` — i.e. it could have
        carried a shortest path; a slack arc never did. When the old
        cost is unknown the endpoint is seeded conservatively.
        """
        view = slot_layout(fragment, partial)
        seeds: set = set()
        for op in ops:
            old = self._cost(
                op.weight if op.kind == "delete" else op.old_weight
            )
            for u, v in self._arcs(fragment, op):
                dv = _at(view, partial, v)
                if not fragment.graph.has_vertex(v):
                    # The op pruned this mirror: once this fragment leaves
                    # v's route, no future invalidation can reach it, so
                    # its stale distance must be discarded *now* or it
                    # leaks through the min-union Assemble forever.
                    if dv < INF:
                        seeds.add(v)
                    continue
                if dv == INF:
                    continue  # never reached: nothing to invalidate
                if old is None or dv == _at(view, partial, u) + old:
                    seeds.add(v)
        return seeds

    def invalidated_region(
        self, fragment: Fragment, query: SSSPQuery, partial: SlotPartial,
        seeds: set,
    ) -> set:
        """Closure of ``seeds`` over out-edges a distance :meth:`_depends` on.

        Slack edges carry no dependency, which keeps the region — and
        hence the repair — proportional to the true affected subtree
        instead of the whole reachable set.
        """
        view = slot_layout(fragment, partial)
        ids, index, out = view.ids, view.index, view.out
        dist = partial.dist
        region = set(seeds)
        held = fragment.graph.has_vertex
        stack = [index[v] for v in seeds if held(v)]
        while stack:
            s = stack.pop()
            du = dist[s]
            if du == INF:
                continue
            for t, weight in out[s]:
                v = ids[t]
                if v not in region and self._depends(
                    dist[t], du + self._cost(weight)
                ):
                    region.add(v)
                    stack.append(t)
        return region

    def repair_partial(
        self, fragment: Fragment, query: SSSPQuery, partial: SlotPartial,
        params: UpdateParams, region: set,
    ) -> SlotPartial:
        """Re-derive an invalidated region's distances from its boundary.

        Region distances are reset to INF, then offered the query
        source's 0 (if invalidated) and the best in-edge whose tail lies
        *outside* the region — those distances are still trusted. The
        IncEval fixpoint afterwards folds in whatever other fragments
        re-derive.
        """
        view = slot_layout(fragment, partial)
        index, dist = view.index, partial.dist
        for v in region:
            s = index.get(v)
            if s is not None:
                dist[s] = INF
        offers: dict[VertexId, float] = {}
        if query.source in region:
            offers[query.source] = 0.0
        for v in region:
            if not fragment.graph.has_vertex(v):
                continue
            best = offers.get(v, INF)
            for u, weight in fragment.graph.iter_in(v):
                if u not in region:
                    best = min(
                        best, _at(view, partial, u) + self._cost(weight)
                    )
            if best < INF:
                offers[v] = best
        return self._relax(
            fragment, view, query, partial, params, offers.items()
        )
