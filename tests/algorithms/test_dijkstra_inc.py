"""Unit tests for (multi-seed) Dijkstra and incremental SSSP.

The incremental cases run the slot kernel SSSP's IncEval runs —
:func:`dijkstra_slots` over a fragment's slot view, seeded with offers
against the current distances.
"""

from repro.algorithms.sequential.dijkstra import INF, dijkstra, single_source
from repro.algorithms.sequential.slots import dijkstra_slots
from repro.graph.digraph import Graph
from repro.graph.fragment import Fragment
from repro.graph.generators import random_weighted_digraph, road_network


def _diamond() -> Graph:
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(0, 2, 4.0)
    g.add_edge(1, 3, 2.0)
    g.add_edge(2, 3, 1.0)
    return g


def test_single_source_diamond():
    dist = single_source(_diamond(), 0)
    assert dist == {0: 0.0, 1: 1.0, 2: 4.0, 3: 3.0}


def test_unreachable_is_inf():
    g = Graph()
    g.add_edge(0, 1)
    g.add_vertex(9)
    assert single_source(g, 0)[9] == INF


def test_source_distance_zero():
    assert single_source(_diamond(), 3) == {0: INF, 1: INF, 2: INF, 3: 0.0}


def test_multi_seed_takes_best():
    g = Graph()
    g.add_edge(0, 2, 10.0)
    g.add_edge(1, 2, 1.0)
    dist, settled = dijkstra(g, {0: 0.0, 1: 0.0})
    assert dist[2] == 1.0
    assert settled == 3


def test_seed_with_offset_costs():
    g = Graph()
    g.add_edge(0, 1, 1.0)
    dist, _ = dijkstra(g, {0: 5.0})
    assert dist == {0: 5.0, 1: 6.0}


def test_seed_not_in_graph_ignored():
    g = Graph()
    g.add_vertex(0)
    dist, settled = dijkstra(g, {99: 0.0})
    assert dist == {}
    assert settled == 0


def test_known_prunes_resettling():
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    known = {0: 0.0, 1: 1.0, 2: 2.0}
    dist, settled = dijkstra(g, {0: 0.0}, known=known)
    assert dist == {}  # nothing improves
    assert settled == 0


def test_known_partial_improvement():
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    known = {0: 0.0, 1: 5.0, 2: 6.0}
    dist, settled = dijkstra(g, {1: 1.0}, known=known)
    assert dist == {1: 1.0, 2: 2.0}
    assert settled == 2


def test_matches_bruteforce_on_random_graph():
    g = random_weighted_digraph(60, 240, seed=1)
    dist = single_source(g, 0)
    # Bellman-Ford oracle
    bf = {v: INF for v in g.vertices()}
    bf[0] = 0.0
    for _ in range(g.num_vertices):
        for e in g.edges():
            if bf[e.src] + e.weight < bf[e.dst]:
                bf[e.dst] = bf[e.src] + e.weight
    assert all(abs(dist[v] - bf[v]) < 1e-9 or dist[v] == bf[v] for v in bf)


# ---------------------------------------------------------- incremental
def incremental_sssp(graph, dist, offers):
    """Fold ``offers`` into the ``{vertex: distance}`` map ``dist`` (in
    place) with the slot kernel; returns (the changes, settled count)."""
    view = Fragment(0, graph, set(), {}).slot_view()
    slots = [dist.get(v, INF) for v in view.ids]
    settled = dijkstra_slots(
        view.out, slots, [(view.index[v], c) for v, c in offers.items()]
    )
    changes = {view.ids[s]: slots[s] for s in settled}
    dist.update(changes)
    return changes, len(settled)


def test_incremental_applies_decreases():
    g = _diamond()
    dist = dict(single_source(g, 0))
    # pretend an external improvement arrived at vertex 2
    changes, settled = incremental_sssp(g, dist, {2: 1.0})
    assert dist[2] == 1.0
    assert dist[3] == 2.0  # improved through 2
    assert changes == {2: 1.0, 3: 2.0}
    assert settled == 2


def test_incremental_ignores_non_improvements():
    g = _diamond()
    dist = dict(single_source(g, 0))
    changes, settled = incremental_sssp(g, dist, {2: 9.0})
    assert changes == {}
    assert settled == 0


def test_incremental_bounded_by_affected_region():
    """The bounded-IncEval property: work tracks changes, not graph size."""
    g = road_network(20, 20, seed=2, removal_prob=0.0)
    dist = dict(single_source(g, 0))
    far_corner = 20 * 20 - 1
    improvement = dist[far_corner] - 0.5
    _, settled = incremental_sssp(g, dist, {far_corner: improvement})
    # A tiny improvement at the far corner touches a small neighborhood,
    # not the 400-vertex fragment.
    assert settled < 40


def test_incremental_equals_recompute():
    g = random_weighted_digraph(50, 200, seed=3)
    dist = dict(single_source(g, 5))
    # new external seed at vertex 7 with cost 0.25
    incremental_sssp(g, dist, {7: 0.25})
    oracle, _ = dijkstra(g, {5: 0.0, 7: 0.25})
    full = {v: INF for v in g.vertices()}
    full.update(oracle)
    assert all(abs(dist.get(v, INF) - full[v]) < 1e-9 for v in g.vertices())
