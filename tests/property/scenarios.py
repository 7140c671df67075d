"""The one scenario module: every input the seam oracles draw from.

* :func:`random_batch` — the seeded ΔG batch generator (tuple ops over a
  live edge set), and :func:`delta_batches`, the three batches each ΔG
  case of the lattice replays;
* :func:`delta_scenario` — the hypothesis strategy for random graphs,
  partitions and mixed batches, and :func:`post_graph`, the graph a
  batch leaves behind;
* :func:`cold_case` — graph, program kwargs and query for the five
  programs without ΔG hooks;
* :func:`assert_sequential` — the sequential oracle for the four ΔG
  programs;
* :func:`observe` — what one run must repeat in every seam cell, and
  :class:`Snapshots`, an in-memory sink for its checkpoint blobs.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sequential.kcore_seq import core_numbers
from repro.engineapi.query import build_query
from repro.graph.digraph import Graph
from repro.graph.generators import (
    bipartite_ratings,
    graph_from_spec,
    labeled_social,
    power_law,
)
from repro.graph.metrics import bfs_layers
from repro.service.service import canonical_answer_bytes
from repro.storage.dfs import SimulatedDFS

from tests.algorithms.test_pie_sim_subiso import _chain_pattern

GRAPH_SPEC = "road:8x8"
NUM_WORKERS = 3

#: The programs with ΔG hooks: query fields, and the one op kind each
#: repairs monotonically (k-core's cores only shrink on a delete).
DELTA_PROGRAMS = {
    "sssp": ({"source": 0}, "insert"),
    "bfs": ({"source": 0}, "insert"),
    "cc": ({}, "insert"),
    "kcore": ({}, "delete"),
}
COLD_PROGRAMS = ["pagerank", "sim", "subiso", "keyword", "cf"]
MIXED = ("delete", "reweight", "insert")


def random_batch(rng: random.Random, edges: set, vertices: list,
                 kinds=MIXED, symmetric: bool = False) -> list[tuple]:
    """One seeded ΔG batch over the live arc set ``edges`` (kept in sync).

    Two deletes, two reweights and two inserts, restricted to ``kinds``.
    No two ops touch the same edge (the batch contract). ``symmetric``
    mutates both arcs of every edge, as k-core's undirected reading of
    adjacency requires.
    """

    def arcs(u, v):
        return [(u, v), (v, u)] if symmetric else [(u, v)]

    pool = sorted({(min(e), max(e)) for e in edges} if symmetric else edges)
    rng.shuffle(pool)
    ops: list[tuple] = []
    used: set = set()
    if "delete" in kinds:
        for u, v in pool[:2]:
            ops += [("delete", a, b) for a, b in arcs(u, v)]
            edges.difference_update(arcs(u, v))
            used.update(arcs(u, v))
    if "reweight" in kinds:
        for u, v in pool[2:4]:
            w = round(rng.uniform(0.5, 4.0), 2)
            ops += [("reweight", a, b, w) for a, b in arcs(u, v)]
            used.update(arcs(u, v))
    if "insert" in kinds:
        added = 0
        while added < 2:
            u, v = rng.sample(vertices, 2)
            if (u, v) in edges or (u, v) in used:
                continue
            w = round(rng.uniform(0.5, 4.0), 2)
            ops += [("insert", a, b, w) for a, b in arcs(u, v)]
            edges.update(arcs(u, v))
            used.update(arcs(u, v))
            added += 1
    return ops


def delta_batches(name: str, strategy: str) -> list[list[tuple]]:
    """Two mixed batches, then one of the program's monotone-safe kind
    only, over :data:`GRAPH_SPEC` — seeded by program and partitioner."""
    graph = graph_from_spec(GRAPH_SPEC)
    # str hash is salted per interpreter; derive a stable seed instead.
    rng = random.Random(sum(map(ord, name + ":" + strategy)))
    edges = {(e.src, e.dst) for e in graph.edges()}
    vertices = sorted(graph.vertices())
    symmetric = name == "kcore"
    _, safe = DELTA_PROGRAMS[name]
    return [
        random_batch(rng, edges, vertices, symmetric=symmetric),
        random_batch(rng, edges, vertices, symmetric=symmetric),
        random_batch(rng, edges, vertices, (safe,), symmetric),
    ]


@st.composite
def delta_scenario(draw, symmetric=False):
    """(pre-graph, assignment, parts, mixed ops, REPAIR_FRACTION).

    The graph is ``Graph(directed=True)`` or ``Graph(directed=False)``;
    ``symmetric=True`` instead stores and mutates both directions of
    every edge of a directed graph (k-core's requirement). Ops never
    reference the same edge twice — in either orientation when the edge
    is an unordered pair (the batch contract).
    """
    directed = symmetric or draw(st.booleans())
    unordered = symmetric or not directed

    def key(u, v):
        return (min(u, v), max(u, v)) if unordered else (u, v)

    n = draw(st.integers(3, 12))
    initial = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.5, 5.0),
            ),
            min_size=2,
            max_size=3 * n,
        )
    )
    pre = Graph(directed=directed)
    for v in range(n):
        pre.add_vertex(v)
    for u, v, w in initial:
        if u == v:
            continue
        w = round(w, 3)
        if not pre.has_edge(u, v):
            pre.add_edge(u, v, w)
        if symmetric and not pre.has_edge(v, u):
            pre.add_edge(v, u, w)

    pairs = sorted({key(e.src, e.dst) for e in pre.edges()})
    order = list(draw(st.permutations(range(len(pairs))))) if pairs else []
    ndel = draw(st.integers(0, min(3, len(order))))
    nrew = draw(st.integers(0, min(2, len(order) - ndel)))
    deletes = [pairs[i] for i in order[:ndel]]
    reweights = [
        (pairs[i], round(draw(st.floats(0.5, 8.0)), 3))
        for i in order[ndel:ndel + nrew]
    ]

    ops: list[tuple] = []
    used: set[tuple] = set()
    for u, v in deletes:
        ops.append(("delete", u, v))
        used.add((u, v))
        if symmetric:
            ops.append(("delete", v, u))
    for (u, v), w in reweights:
        ops.append(("reweight", u, v, w))
        used.add((u, v))
        if symmetric:
            ops.append(("reweight", v, u, w))
    candidates = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.5, 5.0),
            ),
            max_size=4,
        )
    )
    for u, v, w in candidates:
        if u == v or key(u, v) in used or pre.has_edge(u, v):
            continue
        ops.append(("insert", u, v, round(w, 3)))
        used.add(key(u, v))
        if symmetric:
            ops.append(("insert", v, u, round(w, 3)))
    if not ops:  # batches are never empty: fall back to one insert
        ops.append(("insert", 0, 1, 1.0))
        if symmetric and not pre.has_edge(1, 0):
            ops.append(("insert", 1, 0, 1.0))

    parts = draw(st.integers(1, 3))
    assignment = {v: draw(st.integers(0, parts - 1)) for v in range(n)}
    # 0.0 forces a full restart on any unsafe op; 1.0 keeps the repair
    # scoped whenever the region fits in the fragment at all.
    fraction = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return pre, assignment, parts, ops, fraction


def post_graph(pre: Graph, ops) -> Graph:
    """``pre`` with a batch of tuple ops applied."""
    post = pre.copy()
    for op in ops:
        if op[0] == "delete":
            post.remove_edge(op[1], op[2])
        else:  # an insert, or a reweight of the stored edge
            post.add_edge(op[1], op[2], op[3])
    return post


def cold_case(name: str):
    """(graph, program kwargs, query) for one program without ΔG hooks."""
    if name == "pagerank":
        graph = power_law(120)
        return graph, {"total_vertices": graph.num_vertices}, build_query(name)
    if name == "cf":
        return bipartite_ratings(30, 20), {}, build_query(name, epochs=3)
    graph = labeled_social(120, seed=1)
    if name == "keyword":
        return graph, {}, build_query(name, keywords=["person", "product"])
    return graph, {}, build_query(name, pattern=_chain_pattern(), pivot="a")


def assert_sequential(name: str, answer: dict, graph: Graph, query,
                      tag="") -> None:
    """``answer`` equals the sequential oracle's ``Q(graph)``, distances
    to 1e-9 (SSSP and BFS answers list reached vertices only)."""
    if name == "sssp":
        want = {
            v: d for v, d in single_source(graph, query.source).items()
            if d < INF
        }
    elif name == "bfs":
        depth = query.max_depth
        want = {
            v: float(d) for v, d in bfs_layers(graph, query.source).items()
            if depth is None or d <= depth
        }
    elif name == "cc":
        want = connected_components(graph)
    else:
        want = core_numbers(graph)
    assert answer.keys() == want.keys(), tag
    for v, d in want.items():
        assert abs(answer[v] - d) <= 1e-9, (tag, v, answer[v], d)


def observe(result) -> tuple:
    """What a run must repeat in every seam cell: canonical answer
    bytes, the RoundInfo trail, the per-superstep dataflow and the
    repair stats (None for a cold run)."""
    return (
        canonical_answer_bytes(result.answer),
        [
            (r.round_index, r.params_shipped, r.params_applied,
             r.active_workers)
            for r in result.rounds
        ],
        [
            (s.phase, s.messages_sent, s.bytes_sent, s.work_total,
             s.work_max, s.active_workers)
            for s in result.metrics.supersteps
        ],
        None if result.repair is None else result.repair.as_dict(),
    )


class Snapshots(dict):
    """A checkpoint policy's ``dfs`` kept in memory: path -> bytes."""

    def put(self, path: str, data: bytes) -> None:
        self[path] = data

    put_json = SimulatedDFS.put_json
