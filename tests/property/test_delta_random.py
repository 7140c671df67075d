"""Property tests for unified ΔG: a kept fixpoint repaired through a
random mixed batch (inserts + deletes + reweights) answers byte-
identically to full recomputation on the mutated graph, for every
incrementally-maintainable program and both repair modes."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import BFSProgram, BFSQuery
from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.kcore import KCoreProgram, KCoreQuery
from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.graph.generators import path_graph
from repro.service.service import canonical_answer_bytes

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def delta_scenario(draw, symmetric=False):
    """(pre-graph, assignment, parts, mixed ops, repair_fraction).

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


def _post_graph(pre: Graph, ops) -> Graph:
    post = pre.copy()
    for op in ops:
        if op[0] == "insert":
            post.add_edge(op[1], op[2], op[3])
        elif op[0] == "delete":
            post.remove_edge(op[1], op[2])
        else:
            post.add_edge(op[1], op[2], op[3])
    return post


def _repaired_equals_recompute(make_program, query, case):
    pre, assignment, parts, ops, fraction = case
    engine = GrapeEngine(
        build_fragments(pre, assignment, parts), repair_fraction=fraction
    )
    first = engine.run(make_program(), query, keep_state=True)
    second = engine.run_incremental(make_program(), query, first.state, ops)

    post = _post_graph(pre, ops)
    fresh = GrapeEngine(build_fragments(post, assignment, parts))
    full = fresh.run(make_program(), query)
    assert canonical_answer_bytes(second.answer) == canonical_answer_bytes(
        full.answer
    ), (second.repair.as_dict(), ops)
    return second, post


def _path_case(directed, op):
    """Hand-written scenario: the unit path 0-...-7 dealt round-robin
    over 3 parts, and one op."""
    pre = path_graph(8, directed)
    return pre, {v: v % 3 for v in range(8)}, 3, [op], 0.5


@SLOW
@given(delta_scenario())
@example(_path_case(False, ("insert", 7, 0, 1.0)))  # relax 0 -> 7 too
def test_sssp_mixed_delta_equals_recompute(case):
    _repaired_equals_recompute(SSSPProgram, SSSPQuery(source=0), case)


@SLOW
@given(delta_scenario(), st.sampled_from([None, 1, 2, 3]))
@example(_path_case(False, ("insert", 7, 0, 1.0)), None)
@example(_path_case(True, ("insert", 2, 7, 1.0)), 2)  # 7 is 3 hops out
def test_bfs_mixed_delta_equals_recompute(case, max_depth):
    _repaired_equals_recompute(
        BFSProgram, BFSQuery(source=0, max_depth=max_depth), case
    )


@SLOW
@given(delta_scenario())
def test_cc_mixed_delta_equals_recompute(case):
    second, post = _repaired_equals_recompute(CCProgram, CCQuery(), case)
    assert second.answer == connected_components(post)


@SLOW
@given(delta_scenario(symmetric=True))
def test_kcore_mixed_delta_equals_recompute(case):
    _repaired_equals_recompute(KCoreProgram, KCoreQuery(), case)
