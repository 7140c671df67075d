"""PIE program for graph pattern matching via subgraph isomorphism.

SubIso is locality-bounded: every embedding of a pattern lies within
``d`` hops of the image of any designated pattern vertex (the *pivot*),
where ``d`` is the pattern's eccentricity from the pivot. GRAPE exploits
this: fragments are expanded with their d-hop neighborhood at load time
(:func:`repro.graph.fragment.expand_fragments`), after which PEval — a
stock VF2 enumeration — finds *every* embedding whose pivot image is an
owned vertex. No border variables change, so the fixed point is reached
after PEval alone and Assemble concatenates the disjoint match sets.

Deduplication is structural: each embedding is claimed exactly once, by
the owner of its pivot image.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.algorithms.sequential.vf2 import find_subgraph_isomorphisms
from repro.core.aggregators import SET_UNION
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.errors import ProgramError
from repro.graph.digraph import Graph
from repro.graph.fragment import Fragment

VertexId = Hashable

Partial = list  # list of {pattern vertex: data vertex} matches


@dataclass(frozen=True)
class SubIsoQuery:
    """Enumerate embeddings of ``pattern``; ``pivot`` anchors ownership.

    ``max_matches`` bounds the global number of embeddings (None = all);
    the bound is enforced per fragment, then again at Assemble.
    """

    pattern: Graph
    pivot: VertexId
    max_matches: int | None = None

    def radius(self) -> int:
        """Pattern eccentricity from the pivot (undirected hops).

        This is the d-hop expansion the fragments need for PEval to see
        every embedding whose pivot image it owns.
        """
        if self.pivot not in self.pattern:
            raise ProgramError(f"pivot {self.pivot!r} not in pattern")
        dist = {self.pivot: 0}
        queue = deque([self.pivot])
        while queue:
            v = queue.popleft()
            for u in self.pattern.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if len(dist) < self.pattern.num_vertices:
            raise ProgramError(
                "pattern must be connected for pivot-anchored matching"
            )
        return max(dist.values(), default=0)


class SubIsoProgram(PIEProgram[SubIsoQuery, Partial, list]):
    """VF2 on d-hop-expanded fragments, as a PIE program."""

    name = "subiso"

    def param_spec(self, query: SubIsoQuery) -> ParamSpec:
        return ParamSpec(aggregator=SET_UNION, default=None)

    def declare_params(
        self, fragment: Fragment, query: SubIsoQuery, params: UpdateParams
    ) -> None:
        """SubIso exchanges no border variables (locality is pre-shipped)."""

    def peval(
        self, fragment: Fragment, query: SubIsoQuery, params: UpdateParams
    ) -> Partial:
        matches = [
            m
            for m in find_subgraph_isomorphisms(
                query.pattern,
                fragment.graph,
                max_matches=query.max_matches,
                node_filter=lambda pv, gv: (
                    pv != query.pivot or gv in fragment.owned
                ),
            )
        ]
        params.charge(len(matches))
        return matches

    def inceval(
        self,
        fragment: Fragment,
        query: SubIsoQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        return partial  # nothing to do: no update parameters change

    def assemble(
        self, query: SubIsoQuery, partials: Sequence[Partial]
    ) -> list[dict]:
        out: list[dict] = []
        for partial in partials:
            out.extend(partial)
            if query.max_matches is not None and len(out) >= query.max_matches:
                return out[: query.max_matches]
        return out
