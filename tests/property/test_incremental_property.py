"""Property-based tests for incremental ΔG: resumed fixpoints equal
fresh computation for arbitrary graphs, partitions and insertions."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.delta import EdgeInsert
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def update_scenario(draw):
    n = draw(st.integers(2, 14))
    initial = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.5, 5.0),
            ),
            max_size=2 * n,
        )
    )
    inserts = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.5, 5.0),
            ),
            min_size=1,
            max_size=n,
        )
    )
    parts = draw(st.integers(1, 3))
    assignment = {v: draw(st.integers(0, parts - 1)) for v in range(n)}
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v, w in initial:
        if u != v:
            g.add_edge(u, v, round(w, 3))
    insertions = []
    for u, v, w in inserts:
        if u != v and not g.has_edge(u, v):
            insertions.append(EdgeInsert(u, v, round(w, 3)))
            g.add_edge(u, v, round(w, 3))
    return g, assignment, parts, insertions


@SLOW
@given(update_scenario())
def test_sssp_incremental_equals_fresh(case):
    g, assignment, parts, insertions = case
    # fragments built from the PRE-update graph
    pre = g.copy()
    for ins in insertions:
        pre.remove_edge(ins.src, ins.dst)
    fragd = build_fragments(pre, assignment, parts)
    engine = GrapeEngine(fragd)
    program = SSSPProgram()
    first = engine.run(program, SSSPQuery(source=0), keep_state=True)
    second = engine.run_incremental(
        program, SSSPQuery(source=0), first.state, insertions
    )
    oracle = single_source(g, 0)
    for v in g.vertices():
        got = second.answer.get(v, INF)
        assert abs(got - oracle[v]) < 1e-6 or got == oracle[v]


@SLOW
@given(update_scenario())
def test_cc_incremental_equals_fresh(case):
    g, assignment, parts, insertions = case
    pre = g.copy()
    for ins in insertions:
        pre.remove_edge(ins.src, ins.dst)
    fragd = build_fragments(pre, assignment, parts)
    engine = GrapeEngine(fragd)
    program = CCProgram()
    first = engine.run(program, CCQuery(), keep_state=True)
    second = engine.run_incremental(
        program, CCQuery(), first.state, insertions
    )
    assert second.answer == connected_components(g)
