"""Plug-and-play: parallelize YOUR sequential algorithm with GRAPE.

The paper's pitch is that a user who knows textbook graph algorithms
can get a parallel program by writing three sequential pieces plus two
declarations. This example does exactly that for a class the library
does not ship: **single-source widest path** (maximize the minimum edge
capacity along a path — classic bottleneck shortest path).

The sequential pieces:

* PEval  — textbook "fattest-first" Dijkstra variant (max-heap on
  bottleneck capacity);
* IncEval — the same routine seeded at border vertices whose capacity
  improved;
* Assemble — keep the max capacity per vertex.

Declarations: one variable per border node, aggregate function ``max``
(capacities only grow, so the Assurance Theorem applies — the engine
verifies it when ``check_monotonic=True``).

Run:  python examples/plug_and_play_custom.py
"""

from dataclasses import dataclass
from heapq import heappop, heappush

from repro import Session
from repro.core import MAX, ParamSpec, PIEProgram
from repro.engineapi.registry import register_program
from repro.engineapi.report import format_report
from repro.graph.generators import random_weighted_digraph


@dataclass(frozen=True)
class WidestPathQuery:
    source: object


def widest_paths(graph, seeds, known=None):
    """Sequential bottleneck-capacity search (fattest-first Dijkstra)."""
    known = known or {}
    offered = {}  # widest capacity queued per vertex so far
    # (-capacity, insertion counter, vertex): max-heap via negation;
    # the counter breaks ties so vertex ids are never compared
    heap = []
    pushed = 0
    for v, cap in seeds.items():
        if v in graph and cap > known.get(v, 0.0):
            offered[v] = cap
            heappush(heap, (-cap, pushed, v))
            pushed += 1
    updates = {}
    while heap:
        neg, _, v = heappop(heap)
        cap = -neg
        if cap < offered[v]:
            continue  # lazy deletion: a wider offer was queued later
        updates[v] = cap
        for edge in graph.out_edges(v):
            through = min(cap, edge.weight)
            if through > offered.get(edge.dst, known.get(edge.dst, 0.0)):
                # improve-only: a later, narrower offer must not
                # downgrade a queued wider one.
                offered[edge.dst] = through
                heappush(heap, (-through, pushed, edge.dst))
                pushed += 1
    return updates


class WidestPathProgram(PIEProgram):
    """The three sequential pieces + declarations, nothing else."""

    name = "widest-path"

    def param_spec(self, query):
        return ParamSpec(aggregator=MAX, default=0.0)

    def peval(self, fragment, query, params):
        seeds = {}
        if query.source in fragment.graph:
            seeds[query.source] = float("inf")
        partial = widest_paths(fragment.graph, seeds)
        for v in fragment.border:
            if partial.get(v, 0.0) > 0.0:
                params.improve(v, partial[v])
        return partial

    def inceval(self, fragment, query, partial, params, changed):
        seeds = {v: params.get(v) for v in changed}
        updates = widest_paths(fragment.graph, seeds, known=partial)
        partial.update(updates)
        for v in updates:
            # inner_border/mirrors, not border: that property builds the
            # union of both, an O(|border|) read per updated vertex
            if v in fragment.inner_border or v in fragment.mirrors:
                params.improve(v, partial[v])
        return partial

    def assemble(self, query, partials):
        best = {}
        for partial in partials:
            for v, cap in partial.items():
                if cap > best.get(v, 0.0):
                    best[v] = cap
        return best


def main() -> None:
    graph = random_weighted_digraph(600, 3000, seed=3)

    # "Plug": register the PIE program in the API library.
    register_program("widest-path", WidestPathProgram, replace=True)

    # "Play": pick a graph, a strategy, a worker count; submit queries.
    session = Session(
        graph, num_workers=6, partition="ldg", check_monotonic=True
    )
    result = session.run_registered(
        "widest-path", WidestPathQuery(source=0)
    )

    widest = sorted(result.answer.items(), key=lambda kv: -kv[1])[:5]
    print("widest-path capacities from vertex 0 (top 5):")
    for v, cap in widest:
        print(f"  0 -> {v}: capacity {cap:.2f}")
    print()
    print(format_report(result, title="custom PIE program, 6 workers"))

    # Sanity: distributed fixed point == running the sequential code on
    # the whole graph.
    sequential = widest_paths(graph, {0: float("inf")})
    assert all(
        result.answer.get(v, 0.0) == cap  # covers the source's inf
        or abs(result.answer.get(v, 0.0) - cap) < 1e-9
        for v, cap in sequential.items()
    ), "distributed answer diverged from the sequential oracle"
    print("\nmatches the sequential algorithm on the whole graph ✓")


if __name__ == "__main__":
    main()
