"""Property-based tests: the distributed fixed point equals sequential
oracles on random graphs under random partitions.

These are the repo's strongest correctness evidence for the Assurance
Theorem implementation: for arbitrary graphs and arbitrary (valid)
assignments, GRAPE(SSSP/CC) == sequential(SSSP/CC).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def weighted_graph_and_assignment(draw):
    n = draw(st.integers(2, 24))
    m = draw(st.integers(0, 3 * n))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.1, 10.0),
            ),
            min_size=m,
            max_size=m,
        )
    )
    parts = draw(st.integers(1, 4))
    assignment = {
        v: draw(st.integers(0, parts - 1)) for v in range(n)
    }
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for src, dst, w in edges:
        if src != dst:
            g.add_edge(src, dst, round(w, 3))
    return g, assignment, parts


@SLOW
@given(weighted_graph_and_assignment())
def test_grape_sssp_equals_dijkstra(case):
    g, assignment, parts = case
    fragd = build_fragments(g, assignment, parts)
    result = GrapeEngine(fragd, check_monotonic=True).run(
        SSSPProgram(), SSSPQuery(source=0)
    )
    oracle = single_source(g, 0)
    for v in g.vertices():
        got = result.answer.get(v, INF)
        assert abs(got - oracle[v]) < 1e-6 or got == oracle[v]


@SLOW
@given(weighted_graph_and_assignment())
def test_grape_cc_equals_union_find(case):
    g, assignment, parts = case
    fragd = build_fragments(g, assignment, parts)
    result = GrapeEngine(fragd, check_monotonic=True).run(
        CCProgram(), CCQuery()
    )
    assert result.answer == connected_components(g)


@SLOW
@given(weighted_graph_and_assignment())
def test_sssp_params_shipped_bounded_by_border(case):
    """Messages carry only border variables (Example 1 claim (c))."""
    g, assignment, parts = case
    fragd = build_fragments(g, assignment, parts)
    result = GrapeEngine(fragd).run(SSSPProgram(), SSSPQuery(source=0))
    border_total = sum(len(f.border) for f in fragd.fragments)
    for info in result.rounds:
        assert info.params_shipped <= border_total
