"""Unit tests for GraphBuilder and PropertyMap."""

from repro.graph.builder import GraphBuilder
from repro.graph.digraph import Graph
from repro.graph.properties import PropertyMap


# ------------------------------------------------------------ builder
def test_builder_collects_edges_and_vertices():
    g = GraphBuilder().edge(1, 2).edge(2, 3, weight=4.0).build()
    assert g.num_vertices == 3
    assert g.edge_weight(2, 3) == 4.0


def test_builder_vertex_metadata():
    g = (
        GraphBuilder()
        .vertex(1, label="person", name="ann")
        .edge(1, 2)
        .build()
    )
    assert g.vertex_label(1) == "person"
    assert g.vertex_props(1)["name"] == "ann"


def test_builder_vertex_merge_keeps_label():
    b = GraphBuilder().vertex(1, label="a", x=1).vertex(1, y=2)
    g = b.build()
    assert g.vertex_label(1) == "a"
    assert g.vertex_props(1) == {"x": 1, "y": 2}


def test_builder_relabel_dense_ids():
    b = GraphBuilder(relabel=True)
    b.edge("u", "v").edge("v", "w")
    g = b.build()
    assert set(g.vertices()) == {0, 1, 2}
    assert b.id_map["u"] == 0


def test_builder_edges_bulk():
    g = GraphBuilder().edges([(1, 2), (2, 3)]).build()
    assert g.num_edges == 2


def test_builder_undirected():
    g = GraphBuilder(directed=False).edge(1, 2).build()
    assert g.has_edge(2, 1)


# ---------------------------------------------------------- property map
def test_property_map_default():
    pm = PropertyMap("dist", default=float("inf"))
    assert pm[99] == float("inf")
    pm[1] = 3.0
    assert pm[1] == 3.0
    assert 1 in pm and 99 not in pm


def test_property_map_merge_other_wins():
    a = PropertyMap("x", data={1: 1, 2: 2})
    b = PropertyMap("x", data={2: 20, 3: 30})
    merged = a.merge(b)
    assert merged.as_dict() == {1: 1, 2: 20, 3: 30}


def test_property_map_merge_resolver():
    a = PropertyMap("x", data={1: 5})
    b = PropertyMap("x", data={1: 3})
    merged = a.merge(b, resolve=min)
    assert merged[1] == 3


def test_property_map_equality():
    assert PropertyMap("a", data={1: 2}) == PropertyMap("b", data={1: 2})
    assert PropertyMap("a", data={1: 2}) != PropertyMap("a", data={1: 3})


def test_property_map_iteration():
    pm = PropertyMap("x", data={1: "a", 2: "b"})
    assert sorted(pm) == [1, 2]
    assert dict(pm.items()) == {1: "a", 2: "b"}
    assert len(pm) == 2
