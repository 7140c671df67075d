"""Unit tests for the multilevel (METIS-like) partitioner."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph
from repro.graph.generators import (
    community_graph,
    graph_from_spec,
    power_law,
    road_network,
    star_graph,
)
from repro.partition.base import evaluate_partition
from repro.partition.hash1d import HashPartitioner
from repro.partition.multilevel.coarsen import (
    WorkGraph,
    coarsen,
    contract,
    heavy_edge_matching,
    make_work_graph,
)
from repro.partition.multilevel import driver
from repro.partition.multilevel.driver import MultilevelPartitioner
from repro.partition.multilevel.initial import greedy_growth
from repro.partition.multilevel.refine import project, refine
from repro.partition.multilevel.driver import REFINE_PASSES
from repro.partition.registry import get_partitioner
from repro.partition.streaming import LDGPartitioner


# ------------------------------------------------------------ coarsen
def test_work_graph_from_digraph_symmetric():
    g = Graph()
    g.add_edge(1, 2)
    g.add_edge(2, 1)
    wg, vids = make_work_graph(g)
    a, b = vids.index(1), vids.index(2)
    assert wg.adj[a][b] == 2.0  # both directions collapse
    assert wg.vweight[a] == 1


def test_matching_covers_all_vertices():
    g = power_law(60, seed=1)
    wg, _ = make_work_graph(g)
    matching, visit = heavy_edge_matching(wg, seed=2)
    assert len(matching) == wg.num_vertices and min(matching) >= 0
    assert sorted(visit) == list(range(wg.num_vertices))


def test_matching_pairs_at_most_two():
    g = power_law(60, seed=1)
    wg, _ = make_work_graph(g)
    matching, _ = heavy_edge_matching(wg, seed=2)
    from collections import Counter

    counts = Counter(matching)
    assert max(counts.values()) <= 2


def test_contract_preserves_total_weight():
    g = power_law(80, seed=3)
    wg, _ = make_work_graph(g)
    matching, _ = heavy_edge_matching(wg, seed=0)
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
    assert set(assignment) == set(range(wg.num_vertices))
    assert set(assignment.values()) <= {0, 1, 2, 3}


def test_greedy_growth_balance():
    g = power_law(200, seed=6)
    wg, _ = make_work_graph(g)
    assignment = greedy_growth(wg, 4, seed=0)
    sizes = [0] * 4
    for v, p in assignment.items():
        sizes[p] += wg.vweight[v]
    assert max(sizes) <= 1.6 * (sum(sizes) / 4)


def test_greedy_growth_reseeds_when_the_frontier_empties():
    # 200 isolated vertices: every frontier empties after one vertex;
    # the leftovers used to pile onto the last part (47/47/46/60)
    wg = WorkGraph([{} for _ in range(200)], [1] * 200)
    assignment = greedy_growth(wg, 4, seed=0)
    sizes = [0] * 4
    for p in assignment.values():
        sizes[p] += 1
    assert sizes == [50, 50, 50, 50]


# ------------------------------------------------------------- refine
def cut_weight(wg, part) -> float:
    """Total weight of edges crossing parts."""
    return sum(
        w for v, nbrs in enumerate(wg.adj) for u, w in nbrs.items()
        if v < u and part[u] != part[v]
    )


def test_refine_never_worsens_cut():
    g = power_law(150, seed=7)
    wg, _ = make_work_graph(g)
    assignment = [v % 3 for v in range(wg.num_vertices)]
    before = cut_weight(wg, assignment)
    refined = list(assignment)
    refine(wg, refined, 3, 1.2 * wg.total_vertex_weight() / 3,
           REFINE_PASSES, range(wg.num_vertices))
    assert cut_weight(wg, refined) <= before


def test_refine_respects_max_weight():
    g = power_law(150, seed=8)
    wg, _ = make_work_graph(g)
    refined = [v % 3 for v in range(wg.num_vertices)]
    cap = 1.1 * wg.total_vertex_weight() / 3
    refine(wg, refined, 3, cap, REFINE_PASSES, range(wg.num_vertices))
    sizes = [0.0] * 3
    for v, p in enumerate(refined):
        sizes[p] += wg.vweight[v]
    # moves must not push any part above the cap (start was balanced-ish)
    assert max(sizes) <= cap + max(wg.vweight)


def test_project_maps_through_matching():
    coarse_assignment = [1, 0]
    fine_to_coarse = [0, 0, 1]
    assert project(coarse_assignment, fine_to_coarse, {1}) == (
        [1, 1, 0], [2]  # and the fine vertices of the coarse boundary
    )


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


# ------------------------------------------------- boundary-only refine
def _full_sweep(wg, part, num_parts, max_weight, passes):
    """Reference refinement: every pass scans every vertex in id order."""
    part_weight = [0.0] * num_parts
    for v, p in enumerate(part):
        part_weight[p] += wg.vweight[v]
    for _ in range(passes):
        moved = 0
        for v, nbrs in enumerate(wg.adj):
            home = part[v]
            strength = {}
            for u, w in nbrs.items():
                strength[part[u]] = strength.get(part[u], 0.0) + w
            internal = strength.get(home, 0.0)
            best_part, best_gain = home, 0.0
            for p, ext in strength.items():
                if p == home or part_weight[p] + wg.vweight[v] > max_weight:
                    continue
                if ext - internal > best_gain:
                    best_gain, best_part = ext - internal, p
            if best_part != home:
                part[v] = best_part
                part_weight[home] -= wg.vweight[v]
                part_weight[best_part] += wg.vweight[v]
                moved += 1
        if moved == 0:
            break


def _boundary(wg, part):
    return {
        v for v, nbrs in enumerate(wg.adj)
        if any(part[u] != part[v] for u in nbrs)
    }


@st.composite
def refine_cases(draw):
    """A random work graph, assignment, cap, pass count and a seed that
    holds the boundary plus arbitrary interior vertices. Edges join
    nearby ids and parts are id blocks with a few flips, so interior
    vertices that a move puts on the boundary are common."""
    n = draw(st.integers(1, 40))
    adj = [{} for _ in range(n)]
    near = st.tuples(st.integers(0, n - 1), st.integers(1, 3))
    for u, d in draw(st.lists(near, max_size=3 * n)):
        v = (u + d) % n
        if u != v:
            w = draw(st.integers(1, 4))
            adj[u][v] = adj[v][u] = adj[u].get(v, 0) + w
    wg = WorkGraph(adj, draw(st.lists(st.integers(1, 3), min_size=n,
                                      max_size=n)))
    k = draw(st.integers(2, 4))
    part = [v * k // n for v in range(n)]
    flips = st.dictionaries(st.integers(0, n - 1), st.integers(0, k - 1))
    for v, p in draw(flips).items():
        part[v] = p
    slack = draw(st.sampled_from([1.0, 1.05, 1.3, 2.0]))
    extra = draw(st.sets(st.integers(0, n - 1)))
    return (wg, part, k, slack * wg.total_vertex_weight() / k,
            draw(st.integers(1, 5)), _boundary(wg, part) | extra)


@settings(max_examples=200, deadline=None)
@given(refine_cases())
def test_boundary_refine_equals_full_sweep(case):
    wg, part, k, max_weight, passes, seed = case
    expected = list(part)
    _full_sweep(wg, expected, k, max_weight, passes)
    boundary = refine(wg, part, k, max_weight, passes, seed)
    assert part == expected  # same moves, so same part weights too
    assert boundary >= _boundary(wg, part)


def test_refine_scans_what_a_move_puts_on_the_boundary():
    # 2 is interior when the pass starts; 1 moving to part 1 leaves it
    # alone in part 0, and the same pass must move it after 1
    wg = WorkGraph([{1: 3, 3: 5}, {0: 3, 2: 1}, {1: 1}, {0: 5}], [1] * 4)
    part = [1, 0, 0, 1]
    assert refine(wg, part, 2, 10.0, 1, _boundary(wg, part)) >= {1, 2}
    assert part == [1, 1, 1, 1]


# ------------------------------------------------------ pinned output
#: sha256 of ``list(assignment.items())`` (key order included) for the
#: multilevel partitioner at its default seed, recorded before the
#: partitioner moved to per-level lists and boundary-only refinement.
#: ``star200``/4 and ``e16-road:40x40``/4 were re-recorded once when
#: ``greedy_growth`` started re-seeding a region whose frontier empties.
PINNED = {
    ("road36", 2): "45f8b2e0aa0bff54d76d5b7cd43f754dbd5a8e9c59ccb119ce5ce91c9354691b",
    ("road36", 4): "066f4c239c5d831c20647013353ee2d094555e2534e580134b39486998d886e2",
    ("road80csr", 2): "bd3b2549eaf2677580fdfb64fa09d56b5b25799d2ee71f7b4284ddf21b7c5657",
    ("road80csr", 4): "b007745915ea139e37ba92a84165f0ebdbac7214eb6b6a086fb503fb113ec64d",
    ("road40", 2): "8292cf3f1f43b0f5d02b407206f299b5e544fcc5a4b3efa5f938ae97241fc367",
    ("road40", 4): "4afc858c3d8991a8fb54774455f0a2116b459717b3e33f1a1e48f5099f080d61",
    ("power400", 2): "ef490683161fc6c2547952500290f1e876fed6e3b53656825554241c014e0717",
    ("power400", 4): "26400ea7f307f8b2d040e40ad4b5960e97e789959a19fd550210efd90b2fddd1",
    ("power400u", 2): "d78cc3da73317ea8ce7e44084c3f96b1db2e7807d02a7d5ce57c70f794ceb08f",
    ("power400u", 4): "96c868429a64f02159075b69674451cd1b14eeaff4ebdc09042d0d3df38aede9",
    ("road6", 2): "6c92a19ac7a477ef49c88a0ad00c6a038610817f7f6b62c8a67dddbd24fc4e01",
    ("road6", 4): "ff0f488af17718e3626ed74a4e262e4ccbf5400447b9ed1034c534a56e827362",
    ("star200", 2): "b1a555a14a601c29ae2dd3e8c5156d5772075a4911f4849c5d81022e1c42bc38",
    ("star200", 4): "f42c1a2f0c5e986bf66b22bd13a0adf89d05163299ebb6fc11cdfad65e3c9986",
    ("e2-community", 16): "b31ec59a85615854591d639a751538bb30ec4658a4a24c92289c1d284ac335bd",
    ("e16-road:40x40", 4): "ccbf09a725dbeeb4688417d500ab31a595752c9a9068c33b9fdb03c083c2db9d",
}

#: The ladder's four graphs (graph seed 7), the undirected power-law
#: graph, two graphs that coarsen to no level (road 6x6 is below the
#: coarsest size, a star does not shrink), and E2's and E16's graphs.
PINNED_GRAPHS = {
    "road36": lambda: road_network(36, 36, seed=7),
    "road80csr": lambda: road_network(80, 80, seed=7, store="csr"),
    "road40": lambda: road_network(40, 40, seed=7),
    "power400": lambda: power_law(400, seed=7),
    "power400u": lambda: power_law(400, seed=7, directed=False),
    "road6": lambda: road_network(6, 6, seed=7),
    "star200": lambda: star_graph(200),
    "e2-community": lambda: community_graph(
        4000, num_communities=32, intra_degree=6, inter_degree=1, seed=2
    ),
    "e16-road:40x40": lambda: graph_from_spec("road:40x40"),
}


def assignment_digest(assignment) -> str:
    return hashlib.sha256(repr(list(assignment.items())).encode()).hexdigest()


@pytest.mark.parametrize("name,k", sorted(PINNED))
def test_multilevel_assignment_is_pinned(name, k):
    graph = PINNED_GRAPHS[name]()
    assignment = get_partitioner("multilevel")(graph, k)
    assert assignment_digest(assignment) == PINNED[(name, k)]
