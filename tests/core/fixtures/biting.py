"""Biting fixtures: one program per defect a code-shape rule used to flag.

Each program's pattern, run with no check at all, gives a wrong answer,
a difference between two runs, or IncEval reads that grow with the
fragment. ``tests/core/test_program_audits.py`` shows each one bite and
shows which kept check refuses it:

* GRP101/102 (writes against the aggregator's order): ``check_monotonic``;
* GRP201–203 (unbounded IncEval): the boundedness audit;
* GRP301–306 (isolation and determinism): the process-vs-simulated
  identity, a rerun in the same session, or a rerun in a fresh process
  under another ``PYTHONHASHSEED``.

GRP203's fixture is the repository's own strawman,
:class:`~repro.algorithms.ablation.SSSPRecomputeProgram`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.algorithms.sequential.dijkstra import INF, dijkstra
from repro.algorithms.sssp import SSSPProgram, _at, slot_layout
from repro.core.aggregators import LAST_WRITE, MIN, min_union
from repro.core.pie import ParamSpec, PIEProgram
from repro.graph.digraph import Graph

#: GRP301's shared board: every in-process worker reads and writes it.
BOARD: dict = {}


def relay_graph() -> Graph:
    """0 -> {1, 2} -> 3 -> 4 -> 5; under ``range`` over two workers the
    cut is {1, 2} -> 3, and fragment 0 settles 1 (offering 3 the
    distance 2) before 2 (offering 7)."""
    g = Graph()
    for src, dst, w in ((0, 1, 1.0), (0, 2, 2.0), (1, 3, 1.0), (2, 3, 5.0),
                        (3, 4, 1.0), (4, 5, 1.0)):
        g.add_edge(src, dst, w)
    return g


def named_ring(n: int = 24) -> Graph:
    """A ring over string ids, whose set order follows the hash seed."""
    g = Graph()
    for i in range(n):
        g.add_edge(f"v{i}", f"v{(i + 1) % n}", 1.0)
    return g


class DictSSSP(PIEProgram):
    """Textbook PIE SSSP over ``fragment.graph`` with a dict partial;
    each fixture below changes one step of it."""

    name = "bite-sssp"

    def param_spec(self, query):
        return ParamSpec(aggregator=MIN, default=INF)

    def peval(self, fragment, query, params):
        return self._relax(fragment, query, {}, params, {query.source: 0.0})

    def inceval(self, fragment, query, partial, params, changed):
        offers = {v: params.get(v) for v in changed}
        return self._relax(fragment, query, partial, params, offers)

    def _relax(self, fragment, query, partial, params, seeds):
        updates, work = dijkstra(fragment.graph, seeds, partial)
        partial.update(updates)
        params.charge(work)
        self._publish(fragment, params, partial, updates)
        return partial

    def _publish(self, fragment, params, partial, updates):
        for v, d in updates.items():
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, d)

    def assemble(self, query, partials):
        return min_union(partials)


class WidestUnderMinProgram(PIEProgram):
    """GRP101: widest path (the largest bottleneck) declared under MIN.

    Its own ``max(...)`` write moves every border value up, against the
    declared order; the receivers' MIN keeps the default 0.0, so no
    width ever crosses a cut.
    """

    name = "bite-grp101"

    def param_spec(self, query):
        return ParamSpec(aggregator=MIN, default=0.0)

    def peval(self, fragment, query, params):
        return self._grow(fragment, {}, params, {query.source: INF})

    def inceval(self, fragment, query, partial, params, changed):
        offers = {v: params.get(v) for v in changed}
        return self._grow(fragment, partial, params, offers)

    def _grow(self, fragment, width, params, seeds):
        graph = fragment.graph
        heap = [(-cap, v) for v, cap in seeds.items()
                if v in graph and cap > width.get(v, 0.0)]
        for cap, v in heap:
            width[v] = -cap
        heap.sort()
        while heap:
            cap, v = heappop(heap)
            if -cap < width[v]:
                continue
            if v in fragment.inner_border or v in fragment.mirrors:
                params.set(v, max(params.get(v), -cap))
            for dst, w in graph.iter_out(v):
                through = min(-cap, w)
                if through > width.get(dst, 0.0):
                    width[dst] = through
                    heappush(heap, (-through, dst))
        return width

    def assemble(self, query, partials):
        best: dict = {}
        for partial in partials:
            for v, cap in partial.items():
                best[v] = max(best.get(v, 0.0), cap)
        return best


class LastOfferProgram(DictSSSP):
    """GRP102: each mirror's offer is written with ``params.set`` while
    the arcs are relaxed, so the last offer wins instead of the least
    (on :func:`relay_graph`, 7 overwrites 2)."""

    name = "bite-grp102"

    def _publish(self, fragment, params, partial, updates):
        for u, d in updates.items():
            for v, w in fragment.graph.iter_out(u):
                if v in fragment.mirrors:
                    params.set(v, d + w)


class OwnedScanProgram(SSSPProgram):
    """GRP201: IncEval re-offers every owned vertex its own distance —
    no-op offers, a correct answer, and O(|F_i|) reads each call."""

    name = "bite-grp201"

    def inceval(self, fragment, query, partial, params, changed):
        view = slot_layout(fragment, partial)
        offers = {v: _at(view, partial, v) for v in fragment.owned}
        offers.update((v, params.get(v)) for v in changed)
        return self._relax(
            fragment, view, query, partial, params, offers.items()
        )


class BorderRepublishProgram(SSSPProgram):
    """GRP202: IncEval re-publishes the whole border after every call;
    ``improve`` drops the no-ops, so only the reads show it."""

    name = "bite-grp202"

    def inceval(self, fragment, query, partial, params, changed):
        partial = super().inceval(fragment, query, partial, params, changed)
        view = fragment.slot_view()
        for v in fragment.border:
            params.improve(v, _at(view, partial, v))
        return partial


class SharedBoardProgram(DictSSSP):
    """GRP301: settled distances go on a module-level board that every
    in-process worker, and every later run, seeds from."""

    name = "bite-grp301"

    def _relax(self, fragment, query, partial, params, seeds):
        known = {v: d for v, d in BOARD.items() if v in fragment.graph}
        partial = super()._relax(
            fragment, query, partial, params, {**known, **seeds}
        )
        BOARD.update(partial)
        return partial


@dataclass(frozen=True)
class SettledQuery:
    """SSSP from ``source``, with a set GRP302's program writes into."""

    source: object
    settled: set = field(default_factory=set, compare=False)


class QueryBoardProgram(DictSSSP):
    """GRP302: vertices settled anywhere are recorded on the query, and
    an offer to a recorded vertex is skipped. The simulated workers
    share one query object; process workers each unpickle their own."""

    name = "bite-grp302"

    def _relax(self, fragment, query, partial, params, seeds):
        seeds = {v: d for v, d in seeds.items() if v not in query.settled}
        partial = super()._relax(fragment, query, partial, params, seeds)
        query.settled.update(partial)
        return partial


class ConsumingProgram(DictSSSP):
    """GRP303: PEval deletes each arc once it has relaxed it, so the
    fragment a later query runs on has lost them."""

    name = "bite-grp303"

    def peval(self, fragment, query, params):
        partial = super().peval(fragment, query, params)
        graph = fragment.graph
        for u in partial:
            for v in list(graph.out_neighbors(u)):
                graph.remove_edge(u, v)
        return partial


class JitterProgram(DictSSSP):
    """GRP304: an unseeded random tie-break nudges the source's seed."""

    name = "bite-grp304"

    def peval(self, fragment, query, params):
        seeds = {query.source: random.random() * 1e-9}
        return self._relax(fragment, query, {}, params, seeds)


class ClockTieBreakProgram(DictSSSP):
    """GRP305: the tie-break nudge is read off the wall clock."""

    name = "bite-grp305"

    def peval(self, fragment, query, params):
        seeds = {query.source: (time.time() % 1.0) * 1e-9}
        return self._relax(fragment, query, {}, params, seeds)


class SetOrderTokenProgram(PIEProgram):
    """GRP306: tokens handed out in a set's iteration order and written
    under the order-sensitive LAST_WRITE aggregator; over string ids
    that order follows the process's hash seed."""

    name = "bite-grp306"

    def param_spec(self, query):
        return ParamSpec(aggregator=LAST_WRITE, default=None)

    def peval(self, fragment, query, params):
        partial = {}
        for token, v in enumerate(set(fragment.owned)):
            partial[v] = token
            if v in fragment.inner_border:
                params.set(v, token)
        return partial

    def inceval(self, fragment, query, partial, params, changed):
        return partial

    def assemble(self, query, partials):
        out: dict = {}
        for partial in partials:
            out.update(partial)
        return out
