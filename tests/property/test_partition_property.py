"""Property-based tests: every partition strategy yields valid, total
assignments, and fragment construction preserves the graph."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.partition.registry import available_strategies, get_partitioner

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graph(draw):
    n = draw(st.integers(1, 30))
    density = draw(st.floats(0, 0.3))
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()) and density > 0.15:
                g.add_edge(u, v)
    return g


@SLOW
@given(random_graph(), st.integers(1, 5), st.sampled_from(
    ["hash", "range", "grid2d", "ldg", "fennel", "bfs", "multilevel"]
))
def test_strategy_total_and_in_range(g, parts, strategy):
    assignment = get_partitioner(strategy)(g, parts)
    assert set(assignment) == set(g.vertices())
    assert all(0 <= f < parts for f in assignment.values())


@SLOW
@given(random_graph(), st.integers(1, 4))
def test_fragments_preserve_edges_and_vertices(g, parts):
    assignment = get_partitioner("hash")(g, parts)
    fragd = build_fragments(g, assignment, parts)
    # vertices: owned sets partition V
    owned_all = [v for f in fragd.fragments for v in f.owned]
    assert sorted(owned_all, key=repr) == sorted(g.vertices(), key=repr)
    # edges: each original edge appears in its source-owner's fragment
    for e in g.edges():
        frag = fragd.fragments[assignment[e.src]]
        assert frag.graph.has_edge(e.src, e.dst)
        assert frag.graph.edge_weight(e.src, e.dst) == e.weight
    # total edges across fragments equals |E| (no duplicates, no loss)
    total = sum(f.graph.num_edges for f in fragd.fragments)
    assert total == g.num_edges


@SLOW
@given(random_graph(), st.integers(1, 4))
def test_border_consistency(g, parts):
    """Mirrors point at real owners; inner borders are mirrored somewhere."""
    assignment = get_partitioner("hash")(g, parts)
    fragd = build_fragments(g, assignment, parts)
    for frag in fragd.fragments:
        for v, owner in frag.mirrors.items():
            assert assignment[v] == owner
            assert v in fragd.fragments[owner].inner_border
        for v in frag.inner_border:
            assert any(
                v in other.mirrors
                for other in fragd.fragments
                if other.fid != frag.fid
            )
