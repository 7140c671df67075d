"""Property-based tests: every IO format round-trips random graphs."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.graph.io import (
    from_json_dict,
    read_dimacs,
    read_edge_list,
    to_json_dict,
    write_dimacs,
    write_edge_list,
)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def int_graph(draw, weighted=True):
    n = draw(st.integers(1, 12))
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    m = draw(st.integers(0, 2 * n))
    for _ in range(m):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            weight = (
                draw(st.integers(1, 500)) / 100.0 if weighted else 1.0
            )
            g.add_edge(u, v, weight)
    return g


def _same_structure(a: Graph, b: Graph) -> bool:
    if set(a.vertices()) != set(b.vertices()):
        return False
    edges_a = {(e.src, e.dst, e.weight) for e in a.edges()}
    edges_b = {(e.src, e.dst, e.weight) for e in b.edges()}
    return edges_a == edges_b


@SLOW
@given(int_graph())
def test_json_roundtrip(g):
    back = from_json_dict(to_json_dict(g))
    assert _same_structure(g, back)
    for v in g.vertices():
        assert back.vertex_label(v) == g.vertex_label(v)


@SLOW
@given(int_graph())
def test_edge_list_roundtrip(g):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write_edge_list(g, path)
        back = read_edge_list(path, weighted=True)
        # edge list drops isolated vertices by design
        edges_a = {(e.src, e.dst, e.weight) for e in g.edges()}
        edges_b = {(e.src, e.dst, e.weight) for e in back.edges()}
        assert edges_a == edges_b


@SLOW
@given(int_graph())
def test_dimacs_roundtrip_shifted_ids(g):
    import tempfile
    from pathlib import Path

    # DIMACS ids are 1-based: shift
    shifted = Graph()
    for v in g.vertices():
        shifted.add_vertex(v + 1)
    for e in g.edges():
        shifted.add_edge(e.src + 1, e.dst + 1, e.weight)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.gr"
        write_dimacs(shifted, path)
        back = read_dimacs(path)
        assert _same_structure(shifted, back)
