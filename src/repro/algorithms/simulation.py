"""PIE program for graph pattern matching via simulation (Sim).

The query is a labeled pattern graph; the answer is the *maximum
simulation relation* — for each pattern vertex, the set of data vertices
that simulate it. Border variables carry each border vertex's candidate
set (which pattern vertices it may still match) under aggregate function
set-intersection; candidate sets only shrink, so the computation is
monotonic and terminates (Assurance Theorem).

PEval refines the label-based initial candidates over the local fragment,
treating mirror candidate sets as external assumptions. IncEval re-refines
only the region reachable (backwards) from mirrors whose assumptions
shrank — bounded by the affected area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.algorithms.sequential.simulation_seq import (
    initial_candidates,
    refine_simulation,
)
from repro.core.aggregators import SET_INTERSECT
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.digraph import Graph
from repro.graph.fragment import Fragment
from repro.storage.index import IndexManager

VertexId = Hashable

Partial = dict  # owned vertex -> frozenset of pattern vertices


@dataclass(frozen=True)
class SimQuery:
    """Maximum simulation of ``pattern`` in the data graph."""

    pattern: Graph


class SimProgram(PIEProgram[SimQuery, Partial, dict]):
    """Simulation refinement + incremental re-refinement, as PIE.

    With ``use_index=True`` PEval consults the Index Manager's label
    index to seed candidates only at vertices whose label occurs in the
    pattern — the "graph-level optimization" of Section 3 that
    vertex-centric models cannot express (every vertex must run). Falls
    back to the plain scan when the pattern contains wildcard labels.
    """

    name = "sim"

    def __init__(self, use_index: bool = False, index_manager=None) -> None:
        self.use_index = use_index
        # The Index Manager normally belongs to the storage layer and is
        # populated when fragments are loaded (Fig. 2); passing a
        # pre-warmed manager keeps index construction out of query time.
        if use_index and index_manager is None:
            index_manager = IndexManager()
        self._index_manager = index_manager

    def _initial_owned_candidates(
        self, fragment: Fragment, pattern: Graph
    ) -> Partial:
        labels = [pattern.vertex_label(u) for u in pattern.vertices()]
        if not self.use_index or any(lab is None for lab in labels):
            return initial_candidates(fragment.graph, pattern, fragment.owned)
        index = self._index_manager.label_index(fragment.graph)
        by_label: dict[str, set] = {}
        for u in pattern.vertices():
            by_label.setdefault(pattern.vertex_label(u), set()).add(u)
        candidates: Partial = {}
        for label, pattern_vs in by_label.items():
            group = frozenset(pattern_vs)
            for v in index.lookup(label):
                if v in fragment.owned:
                    candidates[v] = candidates.get(v, frozenset()) | group
        return candidates

    def param_spec(self, query: SimQuery) -> ParamSpec:
        return ParamSpec(aggregator=SET_INTERSECT, default=None)

    def declare_params(
        self, fragment: Fragment, query: SimQuery, params: UpdateParams
    ) -> None:
        # Initial assumption: label-based candidates (computable by every
        # host, since fragments copy vertex labels onto mirrors).
        initial = initial_candidates(
            fragment.graph, query.pattern, fragment.border
        )
        params.declare(fragment.border, initial=initial)

    def peval(
        self, fragment: Fragment, query: SimQuery, params: UpdateParams
    ) -> Partial:
        candidates = self._initial_owned_candidates(fragment, query.pattern)
        frozen = {m: params.get(m) for m in fragment.mirrors}
        candidates, steps = refine_simulation(
            fragment.graph, query.pattern, candidates, frozen=frozen
        )
        params.charge(steps)
        for v in fragment.inner_border:
            params.improve(v, candidates.get(v, frozenset()))
        return candidates

    def inceval(
        self,
        fragment: Fragment,
        query: SimQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        frozen = {m: params.get(m) for m in fragment.mirrors}
        partial, steps = refine_simulation(
            fragment.graph,
            query.pattern,
            partial,
            frozen=frozen,
            dirty=changed,
        )
        params.charge(steps)
        # Candidate sets shrink anywhere in the refined region, so the
        # whole inner border is re-offered; improve() drops no-op writes.
        for v in fragment.inner_border:  # grape-lint: disable=GRP202
            params.improve(v, partial.get(v, frozenset()))
        return partial

    def assemble(
        self, query: SimQuery, partials: Sequence[Partial]
    ) -> dict[VertexId, set[VertexId]]:
        result: dict[VertexId, set[VertexId]] = {
            u: set() for u in query.pattern.vertices()
        }
        for partial in partials:
            for v, cands in partial.items():
                for u in cands:
                    result[u].add(v)
        return result
