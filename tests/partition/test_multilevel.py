"""Unit tests for the multilevel (METIS-like) partitioner."""

import pytest

from repro.graph.digraph import Graph
from repro.graph.generators import power_law, road_network
from repro.partition.base import evaluate_partition
from repro.partition.hash1d import HashPartitioner
from repro.partition.multilevel.coarsen import (
    coarsen,
    contract,
    heavy_edge_matching,
    make_work_graph,
)
from repro.partition.multilevel import driver
from repro.partition.multilevel.driver import MultilevelPartitioner
from repro.partition.multilevel.initial import greedy_growth
from repro.partition.multilevel.refine import cut_weight, project, refine
from repro.partition.streaming import LDGPartitioner


# ------------------------------------------------------------ coarsen
def test_work_graph_from_digraph_symmetric():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(2, 1)
    wg, ids = make_work_graph(g)
    a, b = ids[1], ids[2]
    assert wg.adj[a][b] == 2.0  # both directions collapse
    assert wg.vweight[a] == 1


def test_matching_covers_all_vertices():
    g = power_law(60, seed=1)
    wg, _ = make_work_graph(g)
    matching = heavy_edge_matching(wg, seed=2)
    assert set(matching) == set(wg.adj)


def test_matching_pairs_at_most_two():
    g = power_law(60, seed=1)
    wg, _ = make_work_graph(g)
    matching = heavy_edge_matching(wg, seed=2)
    from collections import Counter

    counts = Counter(matching.values())
    assert max(counts.values()) <= 2


def test_contract_preserves_total_weight():
    g = power_law(80, seed=3)
    wg, _ = make_work_graph(g)
    matching = heavy_edge_matching(wg, seed=0)
    coarse = contract(wg, matching)
    assert coarse.total_vertex_weight() == wg.total_vertex_weight()
    assert coarse.num_vertices < wg.num_vertices


def test_coarsen_shrinks_to_target():
    g = power_law(400, seed=4)
    wg, _ = make_work_graph(g)
    levels = coarsen(wg, target_size=80, seed=0)
    assert levels
    assert levels[-1].graph.num_vertices <= wg.num_vertices * 0.7


# ------------------------------------------------------------ initial
def test_greedy_growth_assigns_everything():
    g = power_law(100, seed=5)
    wg, _ = make_work_graph(g)
    assignment = greedy_growth(wg, 4, seed=0)
    assert set(assignment) == set(wg.adj)
    assert set(assignment.values()) <= {0, 1, 2, 3}


def test_greedy_growth_balance():
    g = power_law(200, seed=6)
    wg, _ = make_work_graph(g)
    assignment = greedy_growth(wg, 4, seed=0)
    sizes = [0] * 4
    for v, p in assignment.items():
        sizes[p] += wg.vweight[v]
    assert max(sizes) <= 1.6 * (sum(sizes) / 4)


# ------------------------------------------------------------- refine
def test_refine_never_worsens_cut():
    g = power_law(150, seed=7)
    wg, _ = make_work_graph(g)
    assignment = {v: v % 3 for v in wg.adj}
    before = cut_weight(wg, assignment)
    refined = refine(wg, dict(assignment), 3,
                     max_weight=1.2 * wg.total_vertex_weight() / 3)
    assert cut_weight(wg, refined) <= before


def test_refine_respects_max_weight():
    g = power_law(150, seed=8)
    wg, _ = make_work_graph(g)
    assignment = {v: v % 3 for v in wg.adj}
    cap = 1.1 * wg.total_vertex_weight() / 3
    refined = refine(wg, dict(assignment), 3, max_weight=cap)
    sizes = [0.0] * 3
    for v, p in refined.items():
        sizes[p] += wg.vweight[v]
    # moves must not push any part above the cap (start was balanced-ish)
    assert max(sizes) <= cap + max(wg.vweight.values())


def test_project_maps_through_matching():
    coarse_assignment = {0: 1, 1: 0}
    fine_to_coarse = {10: 0, 11: 0, 12: 1}
    assert project(coarse_assignment, fine_to_coarse) == {
        10: 1, 11: 1, 12: 0,
    }


# ------------------------------------------------------------- driver
def test_driver_valid_assignment():
    g = power_law(300, seed=9)
    assignment = MultilevelPartitioner(seed=1)(g, 6)
    assert set(assignment) == set(g.vertices())
    assert all(0 <= f < 6 for f in assignment.values())


def test_driver_single_part():
    g = power_law(50, seed=10)
    assert set(MultilevelPartitioner()(g, 1).values()) == {0}


def test_driver_empty_graph():
    assert MultilevelPartitioner()(Graph(), 3) == {}


def test_driver_balance_within_tolerance(monkeypatch):
    monkeypatch.setattr(driver, "IMBALANCE", 1.1)
    g = power_law(400, seed=11)
    partitioner = MultilevelPartitioner(seed=2)
    report = evaluate_partition(g, partitioner(g, 8), 8)
    assert report.balance <= 1.35


@pytest.mark.parametrize(
    "graph", [road_network(12, 12, seed=12), power_law(300, seed=12)]
)
def test_multilevel_beats_hash_and_streaming(graph):
    """The E2 precondition: multilevel < streaming < hash on edge cut."""
    ml = evaluate_partition(
        graph, MultilevelPartitioner(seed=3)(graph, 4), 4
    ).cut_edges
    ldg = evaluate_partition(graph, LDGPartitioner()(graph, 4), 4).cut_edges
    hsh = evaluate_partition(graph, HashPartitioner()(graph, 4), 4).cut_edges
    assert ml < hsh
    assert ml <= ldg


def test_driver_deterministic():
    g = power_law(150, seed=13)
    a = MultilevelPartitioner(seed=5)(g, 4)
    b = MultilevelPartitioner(seed=5)(g, 4)
    assert a == b
