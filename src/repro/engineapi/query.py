"""Query construction helpers (the text box of the play panel).

Each query class has a builder turning simple keyword arguments —
the kind a UI form or CLI flag produces — into the typed query object
its PIE program expects. ``build_query("sssp", source=0)`` is the
programmatic equivalent of entering a query in Fig. 3(2).
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.algorithms.bfs import BFSQuery
from repro.algorithms.cc import CCQuery
from repro.algorithms.kcore import KCoreQuery
from repro.algorithms.cf import CFQuery
from repro.algorithms.keyword import KeywordQuery
from repro.algorithms.pagerank import PageRankQuery
from repro.algorithms.simulation import SimQuery
from repro.algorithms.sssp import SSSPQuery
from repro.algorithms.subiso import SubIsoQuery
from repro.errors import QueryError
from repro.graph.digraph import Graph


def _source(query_class: str, kw: dict) -> Hashable:
    source = kw.get("source")
    if source is None or not isinstance(source, Hashable):
        raise QueryError(f"{query_class} needs source=<vertex>")
    return source


def check_source(query: object, graph: Graph) -> None:
    """Refuse a query whose ``source`` is not a vertex of ``graph``.

    A ΔG batch refuses unknown endpoints, so such a source can never
    become one: the answer would be empty at every version.
    """
    source = getattr(query, "source", None)
    if source is not None and not graph.has_vertex(source):
        raise QueryError(
            f"{type(query).__name__} source {source!r} is not a vertex of "
            f"the graph ({graph.num_vertices} vertices)"
        )


def _sssp(**kw) -> SSSPQuery:
    return SSSPQuery(source=_source("sssp", kw))


def _cc(**kw) -> CCQuery:
    return CCQuery()


def _sim(**kw) -> SimQuery:
    pattern = kw.get("pattern")
    if not isinstance(pattern, Graph):
        raise QueryError("sim needs pattern=<Graph>")
    return SimQuery(pattern=pattern)


def _subiso(**kw) -> SubIsoQuery:
    pattern = kw.get("pattern")
    if not isinstance(pattern, Graph):
        raise QueryError("subiso needs pattern=<Graph>")
    pivot = kw.get("pivot")
    if pivot is None:
        pivot = next(iter(pattern.vertices()))
    return SubIsoQuery(
        pattern=pattern, pivot=pivot, max_matches=kw.get("max_matches")
    )


def _keyword(**kw) -> KeywordQuery:
    keywords = kw.get("keywords")
    if not keywords:
        raise QueryError("keyword needs keywords=<list of str>")
    return KeywordQuery(
        keywords=tuple(keywords), radius=int(kw.get("radius", 3))
    )


def _cf(**kw) -> CFQuery:
    return CFQuery(
        rank=int(kw.get("rank", 8)),
        epochs=int(kw.get("epochs", 5)),
        lr=float(kw.get("lr", 0.02)),
        reg=float(kw.get("reg", 0.05)),
        seed=int(kw.get("seed", 7)),
        rating_label=kw.get("rating_label", "rate"),
    )


def _pagerank(**kw) -> PageRankQuery:
    return PageRankQuery(
        damping=float(kw.get("damping", 0.85)),
        tolerance=float(kw.get("tolerance", 1e-6)),
    )


def _bfs(**kw) -> BFSQuery:
    max_depth = kw.get("max_depth")
    if isinstance(max_depth, float) and max_depth.is_integer():
        max_depth = int(max_depth)  # 2.0 from a JSON form; 1.9 is refused
    return BFSQuery(source=_source("bfs", kw), max_depth=max_depth)


def _kcore(**kw) -> KCoreQuery:
    return KCoreQuery()


_BUILDERS: dict[str, Callable[..., object]] = {
    "bfs": _bfs,
    "kcore": _kcore,
    "sssp": _sssp,
    "cc": _cc,
    "sim": _sim,
    "subiso": _subiso,
    "keyword": _keyword,
    "cf": _cf,
    "pagerank": _pagerank,
}


def build_query(query_class: str, **kwargs) -> object:
    """Construct a typed query object for a registered query class."""
    try:
        builder = _BUILDERS[query_class]
    except KeyError:
        raise QueryError(
            f"unknown query class {query_class!r}; "
            f"available: {sorted(_BUILDERS)}"
        ) from None
    try:
        return builder(**kwargs)
    except (TypeError, ValueError) as exc:  # e.g. int() of a bad knob
        raise QueryError(f"bad {query_class} query {kwargs!r}: {exc}") from None


def query_classes() -> list[str]:
    """Names of all known query classes."""
    return sorted(_BUILDERS)
