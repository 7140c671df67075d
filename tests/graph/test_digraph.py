"""Unit tests for the core property digraph."""

import pytest

from repro.errors import GraphError
from repro.graph.digraph import Edge, Graph


def test_empty_graph():
    g = Graph()
    assert g.num_vertices == 0
    assert g.num_edges == 0
    assert len(g) == 0


def test_add_vertex_idempotent():
    g = Graph()
    g.add_vertex(1, label="a")
    g.add_vertex(1)
    assert g.num_vertices == 1
    assert g.vertex_label(1) == "a"


def test_add_vertex_label_update():
    g = Graph()
    g.add_vertex(1, label="a")
    g.add_vertex(1, label="b")
    assert g.vertex_label(1) == "b"


def test_vertex_props_merge():
    g = Graph()
    g.add_vertex(1, name="x")
    g.add_vertex(1, age=3)
    assert g.vertex_props(1) == {"name": "x", "age": 3}


def test_add_edge_creates_endpoints():
    g = Graph()
    g.add_edge(1, 2, 3.5)
    assert g.has_vertex(1) and g.has_vertex(2)
    assert g.edge_weight(1, 2) == 3.5
    assert g.num_edges == 1


def test_duplicate_edge_overwrites_weight_once_counted():
    g = Graph()
    g.add_edge(1, 2, 1.0)
    g.add_edge(1, 2, 9.0)
    assert g.num_edges == 1
    assert g.edge_weight(1, 2) == 9.0


def test_negative_weight_rejected():
    g = Graph()
    with pytest.raises(GraphError):
        g.add_edge(1, 2, -1.0)


def test_nan_weight_rejected_and_inf_kept():
    """NaN compares false both ways, so ``weight < 0`` let it in; SSSP
    then called its head unreachable. ``+inf`` stays a legal weight."""
    g = Graph()
    with pytest.raises(GraphError, match="nan"):
        g.add_edge(0, 1, float("nan"))
    assert not g.has_edge(0, 1)
    g.add_edge(0, 1, float("inf"))
    assert g.edge_weight(0, 1) == float("inf")


def test_directed_adjacency():
    g = Graph()
    g.add_edge(1, 2)
    assert g.out_neighbors(1) == [2]
    assert g.in_neighbors(2) == [1]
    assert g.out_neighbors(2) == []
    assert not g.has_edge(2, 1)


def test_neighbors_union():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(3, 1)
    assert sorted(g.neighbors(1)) == [2, 3]


def test_degrees():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(1, 3)
    g.add_edge(4, 1)
    assert g.out_degree(1) == 2
    assert g.in_degree(1) == 1
    assert g.degree(1) == 3


def test_edges_iteration_directed():
    g = Graph()
    g.add_edge(1, 2, 5.0, label="x")
    edges = list(g.edges())
    assert edges == [Edge(1, 2, 5.0, "x")]


def test_edge_labels():
    g = Graph()
    g.add_edge(1, 2, label="follows")
    assert g.edge_label(1, 2) == "follows"
    g.add_edge(1, 3)
    assert g.edge_label(1, 3) is None


def test_missing_edge_weight_raises():
    g = Graph()
    g.add_vertex(1)
    g.add_vertex(2)
    with pytest.raises(GraphError):
        g.edge_weight(1, 2)


def test_missing_vertex_access_raises():
    g = Graph()
    with pytest.raises(GraphError):
        g.out_neighbors(99)
    with pytest.raises(GraphError):
        g.vertex_label(99)


def test_remove_edge():
    g = Graph()
    g.add_edge(1, 2)
    g.remove_edge(1, 2)
    assert g.num_edges == 0
    assert not g.has_edge(1, 2)
    assert g.in_neighbors(2) == []
    with pytest.raises(GraphError):
        g.remove_edge(1, 2)


def test_remove_vertex_cleans_incident_edges():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(3, 2)
    g.add_edge(2, 4)
    g.remove_vertex(2)
    assert g.num_vertices == 3
    assert g.num_edges == 0
    assert g.out_neighbors(1) == []
    with pytest.raises(GraphError):
        g.remove_vertex(2)


def test_undirected_graph_symmetry():
    g = Graph(directed=False)
    g.add_edge(1, 2, 2.0)
    assert g.has_edge(2, 1)
    assert g.edge_weight(2, 1) == 2.0
    assert g.num_edges == 1
    assert len(list(g.edges())) == 1


def test_undirected_remove_edge_both_sides():
    g = Graph(directed=False)
    g.add_edge(1, 2)
    g.remove_edge(2, 1)
    assert not g.has_edge(1, 2)
    assert g.num_edges == 0


def test_copy_is_independent():
    g = Graph()
    g.add_edge(1, 2, 5.0)
    g.add_vertex(1, label="a", tag=1)
    h = g.copy()
    h.add_edge(2, 3)
    h.add_vertex(1, label="b")
    assert g.num_edges == 1
    assert g.vertex_label(1) == "a"
    assert h.vertex_label(1) == "b"
    assert h.edge_weight(1, 2) == 5.0


def test_subgraph_induced():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(2, 3)
    g.add_edge(3, 1)
    sub = g.subgraph([1, 2])
    assert sub.num_vertices == 2
    assert sub.has_edge(1, 2)
    assert not sub.has_edge(2, 3)


def test_subgraph_missing_vertex_raises():
    g = Graph()
    g.add_vertex(1)
    with pytest.raises(GraphError):
        g.subgraph([1, 99])


def test_reversed_flips_edges():
    g = Graph()
    g.add_edge(1, 2, 7.0, label="r")
    r = g.reversed()
    assert r.has_edge(2, 1)
    assert not r.has_edge(1, 2)
    assert r.edge_weight(2, 1) == 7.0
    assert r.edge_label(2, 1) == "r"


def test_as_undirected():
    g = Graph()
    g.add_edge(1, 2)
    u = g.as_undirected()
    assert u.has_edge(2, 1)
    assert not u.directed


def test_vertices_with_label():
    g = Graph()
    g.add_vertex(1, label="person")
    g.add_vertex(2, label="person")
    g.add_vertex(3, label="product")
    assert sorted(g.vertices_with_label("person")) == [1, 2]


def test_out_edges_objects():
    g = Graph()
    g.add_edge(1, 2, 4.0, label="e")
    (edge,) = g.out_edges(1)
    assert (edge.src, edge.dst, edge.weight, edge.label) == (1, 2, 4.0, "e")


def test_in_edges_objects():
    g = Graph()
    g.add_edge(1, 2, 4.0)
    (edge,) = g.in_edges(2)
    assert (edge.src, edge.dst) == (1, 2)


def test_repr_mentions_sizes():
    g = Graph()
    g.add_edge(1, 2)
    assert "|V|=2" in repr(g)
    assert "|E|=1" in repr(g)


def test_undirected_edges_yield_once_nonlexicographic_ids():
    # repr-based dedup ordering: "10" < "2" lexicographically — each
    # undirected edge must still be reported exactly once.
    g = Graph(directed=False)
    g.add_edge(2, 10)
    g.add_edge(10, 3)
    g.add_edge(1, 2)
    edges = [(e.src, e.dst) for e in g.edges()]
    assert len(edges) == 3
    assert len({frozenset(e) for e in edges}) == 3


def test_self_loop_counts_once():
    g = Graph()
    g.add_edge(5, 5)
    assert g.num_edges == 1
    assert g.out_neighbors(5) == [5]
    assert list(g.edges())[0].src == 5
