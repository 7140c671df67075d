"""PIE program for keyword search in graphs (Keyword).

Query: a list of keywords plus a hop radius. Answer: every *root* vertex
from which all keywords are reachable within the radius (along
out-edges), scored by total distance — the distance core of rooted
keyword search.

Border variables carry, per vertex, the tuple of its best known
distances to each keyword (component-wise ``min`` aggregate; the tuple
only improves component-wise, so the computation is monotonic). PEval is
a per-keyword backward BFS; IncEval re-runs the BFS seeded only at the
mirrors whose tuples improved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.algorithms.sequential.keyword_seq import (
    UNREACHED,
    keyword_distances,
)
from repro.core.aggregators import Aggregator
from repro.core.partial_order import PartialOrder
from repro.core.pie import ParamSpec, PIEProgram
from repro.core.update_params import UpdateParams
from repro.graph.fragment import Fragment

VertexId = Hashable

Partial = list  # one {vertex: distance} map per keyword


@dataclass(frozen=True)
class KeywordQuery:
    """Roots covering every keyword within ``radius`` out-hops."""

    keywords: tuple[str, ...]
    radius: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "keywords", tuple(self.keywords))


def _tuple_min(cur: object, new: object) -> object:
    return tuple(min(a, b) for a, b in zip(cur, new))  # type: ignore[arg-type]


def _tuple_decreases(old: object, new: object) -> bool:
    return all(n <= o for n, o in zip(new, old))  # type: ignore[arg-type]


#: Component-wise min over distance tuples; each component only drops.
TUPLE_MIN = Aggregator(
    "tuple-min",
    _tuple_min,
    PartialOrder("componentwise-decreasing", _tuple_decreases),
)


class KeywordProgram(PIEProgram[KeywordQuery, Partial, dict]):
    """Backward BFS per keyword + incremental re-expansion, as PIE."""

    name = "keyword"

    def param_spec(self, query: KeywordQuery) -> ParamSpec:
        return ParamSpec(aggregator=TUPLE_MIN, default=None)

    def peval(
        self, fragment: Fragment, query: KeywordQuery, params: UpdateParams
    ) -> Partial:
        partial: Partial = []
        visited_total = 0
        for keyword in query.keywords:
            updates, visited = keyword_distances(
                fragment.graph, keyword, query.radius
            )
            partial.append(updates)
            visited_total += visited
        params.charge(visited_total)
        self._export(fragment, query, params, partial, fragment.border)
        return partial

    def inceval(
        self,
        fragment: Fragment,
        query: KeywordQuery,
        partial: Partial,
        params: UpdateParams,
        changed: set[VertexId],
    ) -> Partial:
        visited_total = 0
        improved: set[VertexId] = set()
        for idx, keyword in enumerate(query.keywords):
            seeds = {}
            for v in changed:
                value = params.get(v)
                if value is not None and value[idx] < UNREACHED:
                    seeds[v] = value[idx]
            if not seeds:
                continue
            updates, visited = keyword_distances(
                fragment.graph,
                keyword,
                query.radius,
                seeds=seeds,
                known=partial[idx],
                scan_holders=False,  # PEval already settled all holders
            )
            partial[idx].update(updates)
            visited_total += visited
            improved.update(updates)
        params.charge(visited_total)
        exports = [v for v in improved if params.is_declared(v)]
        self._export(fragment, query, params, partial, exports)
        return partial

    def assemble(
        self, query: KeywordQuery, partials: Sequence[Partial]
    ) -> dict[VertexId, float]:
        k = len(query.keywords)
        best: dict[VertexId, list[float]] = {}
        for partial in partials:
            for idx in range(k):
                for v, d in partial[idx].items():
                    row = best.setdefault(v, [UNREACHED] * k)
                    if d < row[idx]:
                        row[idx] = d
        return {
            v: sum(row)
            for v, row in best.items()
            if all(d <= query.radius for d in row)
        }

    def _export(
        self,
        fragment: Fragment,
        query: KeywordQuery,
        params: UpdateParams,
        partial: Partial,
        vertices,
    ) -> None:
        for v in vertices:
            row = tuple(
                partial[idx].get(v, UNREACHED)
                for idx in range(len(query.keywords))
            )
            if any(d < UNREACHED for d in row):
                params.improve(v, row)
