"""Unit tests for the synthetic dataset generators."""

import pytest

from repro.errors import GraphError
from repro.graph.generators import (
    binary_tree,
    bipartite_ratings,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    graph_from_spec,
    labeled_social,
    path_graph,
    power_law,
    random_weighted_digraph,
    road_network,
    star_graph,
)
from repro.graph.metrics import estimate_diameter, max_degree


def test_path_graph_shape():
    g = path_graph(5)
    assert g.num_vertices == 5
    assert g.num_edges == 4
    assert g.out_neighbors(0) == [1]
    assert g.out_neighbors(4) == []


def test_cycle_graph_closes():
    g = cycle_graph(4)
    assert g.has_edge(3, 0)
    assert g.num_edges == 4


def test_star_graph_hub():
    g = star_graph(6)
    assert g.out_degree(0) == 5
    assert g.in_degree(3) == 1


def test_complete_graph_edge_count():
    assert complete_graph(4).num_edges == 12
    assert complete_graph(4, directed=False).num_edges == 6


def test_binary_tree_sizes():
    g = binary_tree(3)
    assert g.num_vertices == 15
    assert g.out_degree(0) == 2


def test_erdos_renyi_deterministic():
    a = erdos_renyi(30, 0.2, seed=1)
    b = erdos_renyi(30, 0.2, seed=1)
    assert sorted((e.src, e.dst) for e in a.edges()) == sorted(
        (e.src, e.dst) for e in b.edges()
    )


def test_erdos_renyi_density_scales():
    sparse = erdos_renyi(40, 0.05, seed=2)
    dense = erdos_renyi(40, 0.5, seed=2)
    assert dense.num_edges > sparse.num_edges


def test_random_weighted_digraph_counts():
    g = random_weighted_digraph(50, 120, seed=3)
    assert g.num_vertices == 50
    assert g.num_edges == 120
    assert all(1.0 <= e.weight <= 10.0 for e in g.edges())


def test_road_network_is_bidirectional():
    g = road_network(6, 6, seed=4)
    for edge in g.edges():
        assert g.has_edge(edge.dst, edge.src)
        assert g.edge_weight(edge.dst, edge.src) == edge.weight


def test_road_network_degree_bounded():
    g = road_network(8, 8, seed=5)
    assert max_degree(g) <= 8


def test_road_network_high_diameter():
    road = road_network(12, 12, seed=6, removal_prob=0.0)
    social = power_law(144, m_per_node=4, seed=6)
    assert estimate_diameter(road) > estimate_diameter(social)


def test_road_network_deterministic():
    a = road_network(5, 5, seed=7)
    b = road_network(5, 5, seed=7)
    assert a.num_edges == b.num_edges


def test_power_law_heavy_tail():
    g = power_law(400, m_per_node=3, seed=8)
    degrees = sorted((g.out_degree(v) for v in g.vertices()), reverse=True)
    # hub degree should far exceed the median — the skew that matters.
    assert degrees[0] >= 4 * degrees[len(degrees) // 2]


def test_power_law_param_validation():
    with pytest.raises(ValueError):
        power_law(3, m_per_node=5)


def test_labeled_social_labels_and_edges():
    g = labeled_social(80, seed=9)
    labels = {g.vertex_label(v) for v in g.vertices()}
    assert labels == {"person", "product"}
    edge_labels = {e.label for e in g.edges()}
    assert "follow" in edge_labels
    assert edge_labels <= {"follow", "recommend", "buy", "rate_bad"}


def test_labeled_social_products_targets_only():
    g = labeled_social(50, seed=10)
    for e in g.edges():
        if e.label in ("recommend", "buy", "rate_bad"):
            assert g.vertex_label(e.dst) == "product"
            assert g.vertex_label(e.src) == "person"


def test_community_graph_locality():
    from repro.graph.generators import community_graph

    g = community_graph(400, num_communities=8, intra_degree=5,
                        inter_degree=1, seed=13)
    size = 50
    intra = sum(
        1 for e in g.edges() if e.src // size == e.dst // size
    )
    inter = g.num_edges - intra
    assert intra > 3 * inter  # dense communities, sparse bridges
    for e in g.edges():  # symmetric for traversal
        assert g.has_edge(e.dst, e.src)


def test_community_graph_deterministic():
    from repro.graph.generators import community_graph

    a = community_graph(120, seed=14)
    b = community_graph(120, seed=14)
    assert a.num_edges == b.num_edges


def test_labeled_random_labels():
    from repro.graph.generators import labeled_random

    g = labeled_random(200, num_labels=10, seed=15)
    labels = {g.vertex_label(v) for v in g.vertices()}
    assert labels <= {f"L{i}" for i in range(10)}
    assert len(labels) == 10


def test_bipartite_ratings_structure():
    g = bipartite_ratings(30, 10, ratings_per_user=5, seed=11)
    users = [v for v in g.vertices() if g.vertex_label(v) == "user"]
    items = [v for v in g.vertices() if g.vertex_label(v) == "item"]
    assert len(users) == 30 and len(items) == 10
    for e in g.edges():
        assert g.vertex_label(e.src) == "user"
        assert g.vertex_label(e.dst) == "item"
        assert 0.5 <= e.weight <= 5.0


def test_bipartite_ratings_per_user_count():
    g = bipartite_ratings(20, 15, ratings_per_user=6, seed=12)
    for v in g.vertices():
        if g.vertex_label(v) == "user":
            assert g.out_degree(v) == 6


@pytest.mark.parametrize(
    "spec",
    ["road:axb", "road:x5", "road", "social:abc", "power:3", "road:0x5",
     "social:0"],
)
def test_graph_from_spec_rejects_bad_sizes(spec):
    # Specs arrive from --graph and from serve traces: a malformed or
    # non-positive size is a typed error naming the spec, never a bare
    # ValueError and never a silently empty graph.
    accepted = "road:RxC, power:N or social:N"
    with pytest.raises(GraphError, match=accepted) as err:
        graph_from_spec(spec)
    assert repr(spec) in str(err.value)
