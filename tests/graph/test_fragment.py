"""Unit tests for fragments, border bookkeeping and d-hop expansion."""

import pytest

from repro.errors import PartitionError
from repro.graph.digraph import Graph
from repro.graph.fragment import (
    FragmentedGraph,
    build_fragments,
    expand_fragments,
)


def _line() -> Graph:
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 2.0)
    g.add_edge(2, 3, 3.0)
    return g


def test_fragments_own_all_vertices():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert fragd.fragments[0].owned == {0, 1}
    assert fragd.fragments[1].owned == {2, 3}
    assert fragd.num_vertices == 4


def test_cross_edge_creates_mirror():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    f0 = fragd.fragments[0]
    assert f0.mirrors == {2: 1}
    assert f0.graph.has_edge(1, 2)
    assert f0.graph.edge_weight(1, 2) == 2.0


def test_inner_border_marks_owned_targets():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert fragd.fragments[1].inner_border == {2}
    assert fragd.fragments[0].inner_border == set()


def test_border_union():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert fragd.fragments[0].border == {2}
    assert fragd.fragments[1].border == {2}


def test_mirror_carries_labels_and_props():
    g = Graph()
    g.add_vertex(2, label="person", name="bo")
    g.add_edge(1, 2)
    fragd = build_fragments(g, {1: 0, 2: 1}, 2)
    local = fragd.fragments[0].graph
    assert local.vertex_label(2) == "person"
    assert local.vertex_props(2)["name"] == "bo"


def test_local_graph_has_only_owned_out_edges():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    f1 = fragd.fragments[1]
    assert f1.graph.has_edge(2, 3)
    assert not f1.graph.has_edge(1, 2)  # src owned by fragment 0


def test_hosts_routing_table():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert fragd.hosts(2) == {0, 1}
    assert fragd.hosts(0) == {0}


def test_owner_of():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert fragd.owner_of(2) == 1
    with pytest.raises(PartitionError):
        fragd.owner_of(99)


def test_cross_edges_count():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert fragd.cross_edges() == 1
    single = build_fragments(g, {v: 0 for v in g.vertices()}, 1)
    assert single.cross_edges() == 0


def test_balance_metric():
    g = _line()
    balanced = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert balanced.balance() == 1.0
    skewed = build_fragments(g, {0: 0, 1: 0, 2: 0, 3: 1}, 2)
    assert skewed.balance() == 1.5


def test_unassigned_vertex_rejected():
    g = _line()
    with pytest.raises(PartitionError):
        build_fragments(g, {0: 0, 1: 0, 2: 1}, 2)


def test_out_of_range_fragment_rejected():
    g = _line()
    with pytest.raises(PartitionError):
        build_fragments(g, {0: 0, 1: 0, 2: 5, 3: 1}, 2)


def test_assignment_of_a_vertex_not_in_the_graph_rejected():
    # Was accepted silently: num_vertices counted it, owner_of answered
    # for it, and no fragment hosted it.
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    with pytest.raises(PartitionError, match="99"):
        build_fragments(g, {0: 0, 1: 1, 2: 0, 99: 1}, 2)


def test_zero_fragments_rejected():
    with pytest.raises(PartitionError):
        build_fragments(_line(), {}, 0)


def test_undirected_edge_owned_by_both_sides():
    g = Graph(directed=False)
    g.add_edge(1, 2)
    fragd = build_fragments(g, {1: 0, 2: 1}, 2)
    assert fragd.fragments[0].graph.has_edge(1, 2)
    assert fragd.fragments[1].graph.has_edge(2, 1)
    assert fragd.fragments[0].mirrors == {2: 1}
    assert fragd.fragments[1].mirrors == {1: 0}


def test_fragmented_graph_repr():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2, strategy="hash")
    assert "hash" in repr(fragd)


# --------------------------------------------------------- expansion
def test_expand_zero_radius_keeps_owned_only():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    exp = expand_fragments(g, fragd, 0)
    assert set(exp.fragments[0].graph.vertices()) == {0, 1}


def test_expand_one_hop_includes_neighbors():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    exp = expand_fragments(g, fragd, 1)
    f0 = exp.fragments[0]
    assert set(f0.graph.vertices()) == {0, 1, 2}
    assert f0.mirrors == {2: 1}
    # expansion pulls the full induced subgraph, including 2 -> 3? No: 3
    # is two hops from fragment 0's owned set.
    assert not f0.graph.has_vertex(3)


def test_expand_two_hops_covers_whole_line():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    exp = expand_fragments(g, fragd, 2)
    assert set(exp.fragments[0].graph.vertices()) == {0, 1, 2, 3}
    assert exp.fragments[0].graph.has_edge(2, 3)


def test_expand_preserves_ownership():
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
    exp = expand_fragments(g, fragd, 2)
    assert exp.fragments[0].owned == {0, 1}
    assert exp.fragments[1].owned == {2, 3}
    assert exp.strategy.endswith("+expand2")


def test_expand_follows_in_edges_too():
    # Expansion hops are undirected: a fragment owning only the sink
    # still pulls its predecessors.
    g = _line()
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0, 3: 1}, 2)
    exp = expand_fragments(g, fragd, 1)
    f1 = exp.fragments[1]
    assert 2 in set(f1.graph.vertices())
