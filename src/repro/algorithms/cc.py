"""PIE program for connected-component detection (CC).

PEval labels every vertex of the local fragment with the minimum vertex
id of its local (weakly connected) component — plain union-find. Border
variables carry the labels under aggregate function ``min``; IncEval
propagates lowered labels by BFS, bounded by the relabeled region. At
the fixed point every vertex holds the minimum id of its *global*
component; Assemble is the MIN family's shared ``min_union``. IncEval
and both ΔG hooks end in one ``_publish`` (charge, then export the
border labels that moved).

Deletions are triaged in ``delta_seeds``: an edge whose endpoints are
still connected in the (already mutated) local graph cannot have split
a component and seeds nothing — one union-find pass over the fragment
per batch that holds a delete, no structure kept between batches (a
replacement-edge structure, if one is ever worth its upkeep, belongs in
the partial answer, not on the program object).

Vertex ids must be totally ordered (all bundled generators use ints).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.algorithms.sequential.cc_seq import (
    connected_components,
    incremental_min_labels,
    local_connectivity,
)
from repro.core.aggregators import MIN, min_union
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment

VertexId = Hashable

Partial = dict  # vertex -> smallest known component label


@dataclass(frozen=True)
class CCQuery:
    """Connected components of the whole graph (no parameters)."""


class CCProgram(PIEProgram[CCQuery, Partial, dict]):
    """Union-find + incremental min-label propagation, as a PIE program."""

    name = "cc"

    def param_spec(self, query: CCQuery) -> ParamSpec:
        # None = "no label yet"; the first concrete label always wins.
        return ParamSpec(aggregator=MIN, default=None)

    def peval(
        self, fragment: Fragment, query: CCQuery, params: UpdateParams
    ) -> Partial:
        labels = connected_components(fragment.graph)
        params.charge(len(labels))
        for v in fragment.border:
            params.improve(v, labels[v])
        return labels

    def inceval(
        self,
        fragment: Fragment,
        query: CCQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        decreased = {v: params.get(v) for v in changed}
        changes, touched = incremental_min_labels(
            fragment.graph, partial, decreased
        )
        return self._publish(fragment, partial, params, changes, touched)

    @staticmethod
    def _publish(
        fragment: Fragment, partial: Partial, params: UpdateParams,
        changes: Mapping[VertexId, VertexId], work: int,
    ) -> Partial:
        """Charge ``work`` and publish the border labels that moved."""
        params.charge(work)
        for v, label in changes.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, label)
        return partial

    def classify_update(self, query: CCQuery, op) -> bool:
        """Connectivity ignores weights: only deletions are unsafe.

        Deletions still route through the invalidate path, but
        :meth:`delta_seeds` proves most of them harmless (endpoints
        still locally connected -> empty region); classification itself
        cannot, because it sees no fragment.
        """
        return op.kind != "delete"

    def on_graph_update(
        self,
        fragment: Fragment,
        query: CCQuery,
        partial: Partial,
        params: UpdateParams,
        delta,
    ) -> Partial:
        """ΔG hook: an inserted edge merges two components (labels drop).

        Connectivity is undirected, so the merge must flow both ways
        across a cross-fragment edge: the side owning only the *target*
        exports the target's current label (the insertion just made it a
        border vertex the other side has never heard about). Reweights
        are connectivity-neutral no-ops; deletions are classified unsafe
        and repaired via :meth:`repair_partial`.
        """
        decreased: dict[VertexId, VertexId] = {}
        for ins in delta:
            if ins.kind != "insert":
                continue
            if ins.dst in fragment.owned and ins.src not in fragment.owned:
                # We own the target of a cross edge: the source side has
                # a brand-new mirror of it — publish our current label so
                # the merge can flow backwards across the new edge.
                label = partial.get(ins.dst)
                if label is not None:
                    params.improve(ins.dst, label)
                    params.touch(ins.dst)  # new mirror must hear it
            lu = partial.get(ins.src)
            if lu is None:
                lu = params.get(ins.src)
            lv = partial.get(ins.dst)
            if lv is None:
                lv = params.get(ins.dst)
            candidates = [x for x in (lu, lv) if x is not None]
            if not candidates:
                continue
            smallest = min(candidates)
            for endpoint, label in ((ins.src, lu), (ins.dst, lv)):
                if endpoint not in fragment.graph:
                    continue
                if label is None or smallest < label:
                    if smallest < decreased.get(endpoint, endpoint):
                        decreased[endpoint] = smallest
        changes, touched = incremental_min_labels(
            fragment.graph, partial, decreased
        )
        return self._publish(fragment, partial, params, changes, touched)

    def delta_seeds(
        self, fragment: Fragment, query: CCQuery, partial: Partial, ops
    ) -> set:
        """Endpoints of deletions that may have split a local component.

        The batch is already applied to ``fragment.graph`` when this
        runs. A deletion whose endpoints are still locally connected
        cannot have split any local component, so it contributes no
        seeds — and a batch of such deletions yields an empty
        invalidated region, skipping repair entirely. Connectivity is
        read off the mutated graph (one union-find pass per batch that
        holds a delete), so the test is exact and a function of the
        fragment alone — identical on every backend.
        """
        graph = fragment.graph
        dsu = None
        seeds: set = set()
        for op in ops:
            if op.kind == "delete":
                if dsu is None:
                    dsu = local_connectivity(graph)
                if (
                    op.src in dsu
                    and op.dst in dsu
                    and dsu.connected(op.src, op.dst)
                ):
                    continue  # still connected: components unchanged
            for v in (op.src, op.dst):
                if graph.has_vertex(v) or v in partial:
                    seeds.add(v)
        return seeds

    def invalidated_region(
        self, fragment: Fragment, query: CCQuery, partial: Partial, seeds: set
    ) -> set:
        """Every local vertex sharing a component label with a seed.

        A deletion can split a component, so *any* vertex carrying one of
        the seeds' labels may owe its label to the lost edge. At the old
        fixed point a local weak component is label-uniform, so taking
        label-mates captures whole components and leaves no local edge
        between the region and its complement.
        """
        labels = {
            partial[v] for v in seeds if partial.get(v) is not None
        }
        region = set(seeds)
        for v, label in partial.items():
            if label in labels:
                region.add(v)
        return region

    def repair_partial(
        self,
        fragment: Fragment,
        query: CCQuery,
        partial: Partial,
        params: UpdateParams,
        region: set,
    ) -> Partial:
        """Relabel the invalidated components from scratch.

        The region is a union of whole local weak components (see
        :meth:`invalidated_region`), so recomputing union-find on the
        induced subgraph is locally complete; cross-fragment stitching
        happens in the IncEval fixpoint that follows.
        """
        for v in region:
            partial.pop(v, None)
        present = [v for v in region if fragment.graph.has_vertex(v)]
        labels = connected_components(fragment.graph.subgraph(present))
        partial.update(labels)
        return self._publish(fragment, partial, params, labels, len(labels))

    def assemble(
        self, query: CCQuery, partials: Sequence[Partial]
    ) -> dict[VertexId, VertexId]:
        return min_union(partials)
