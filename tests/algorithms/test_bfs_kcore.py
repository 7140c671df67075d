"""Tests for the BFS and k-core PIE programs and their sequential cores."""

import pytest

from repro.algorithms.bfs import (
    BFSProgram,
    BFSQuery,
    INF,
    local_bfs,
    reachable_from,
)
from repro.algorithms.kcore import KCoreProgram, KCoreQuery
from repro.algorithms.sequential.kcore_seq import (
    converge_h_index,
    core_numbers,
    h_index,
    h_index_round,
)
from repro.engineapi.session import Session
from repro.graph.digraph import Graph
from repro.graph.generators import (
    community_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    power_law,
    road_network,
)
from repro.graph.metrics import bfs_layers


# ------------------------------------------------------------------ bfs
def test_local_bfs_plain():
    g = path_graph(5)
    updates, work = local_bfs(g, {0: 0.0})
    assert updates == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
    assert work == 5


def test_local_bfs_max_depth():
    g = path_graph(6)
    updates, _ = local_bfs(g, {0: 0.0}, max_depth=2)
    assert max(updates.values()) == 2.0
    assert 3 not in updates
    # a seed deeper than max_depth is not accepted (nor expanded)
    updates, work = local_bfs(g, {0: 0.0, 4: 3.0}, max_depth=2)
    assert set(updates) == {0, 1, 2}
    assert work == 3


def test_local_bfs_known_prunes():
    g = path_graph(4)
    known = {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0}
    updates, work = local_bfs(g, {0: 0.0}, known=known)
    assert updates == {}
    assert work == 0


@pytest.mark.parametrize("workers", [1, 3, 6])
def test_bfs_program_equals_layers(workers):
    g = power_law(200, seed=1)
    session = Session(g, num_workers=workers, check_monotonic=True)
    result = session.run(BFSProgram(), BFSQuery(source=0))
    oracle = bfs_layers(g, 0)
    got = {v: d for v, d in result.answer.items() if d < INF}
    assert got == {v: float(d) for v, d in oracle.items()}


def test_bfs_program_max_depth():
    g = road_network(8, 8, seed=2, removal_prob=0.0)
    session = Session(g, num_workers=4, partition="bfs")
    result = session.run(BFSProgram(), BFSQuery(source=0, max_depth=3))
    assert all(d <= 3 for d in result.answer.values())
    oracle = bfs_layers(g, 0)
    expected = {v for v, d in oracle.items() if d <= 3}
    assert reachable_from(result.answer) == expected


def test_bfs_reachability_disconnected():
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(5, 6)
    session = Session(g, num_workers=2)
    result = session.run(BFSProgram(), BFSQuery(source=0))
    assert reachable_from(result.answer) == {0, 1}


def test_bfs_registered_in_library():
    from repro.engineapi.query import build_query
    from repro.engineapi.registry import get_program

    assert get_program("bfs").name == "bfs"
    q = build_query("bfs", source=4, max_depth=2)
    assert q.source == 4 and q.max_depth == 2


# ---------------------------------------------------------------- kcore
def test_h_index_basic():
    assert h_index([]) == 0
    assert h_index([0, 0]) == 0
    assert h_index([1, 1, 1]) == 1
    assert h_index([3, 3, 3]) == 3
    assert h_index([5, 4, 3, 2, 1]) == 3
    assert h_index([float("inf")] * 4) == 4


def test_core_numbers_cycle():
    assert set(core_numbers(cycle_graph(6, directed=False)).values()) == {2}


def test_core_numbers_complete():
    core = core_numbers(complete_graph(5, directed=False))
    assert set(core.values()) == {4}


def test_core_numbers_tree_is_one():
    g = Graph(directed=False)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(2, 3)
    assert set(core_numbers(g).values()) == {1}


def test_core_numbers_mixed():
    # triangle with a pendant vertex: triangle = 2-core, pendant = 1
    g = Graph(directed=False)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(2, 0)
    g.add_edge(2, 3)
    core = core_numbers(g)
    assert core == {0: 2, 1: 2, 2: 2, 3: 1}


def test_h_index_iteration_converges_to_peeling():
    g = community_graph(300, num_communities=6, intra_degree=5, seed=3)
    estimate = {v: len(set(g.neighbors(v))) for v in g.vertices()}
    converge_h_index(g, estimate)
    assert estimate == core_numbers(g)


def test_h_index_round_respects_external():
    g = Graph(directed=False)
    g.add_edge(0, 1)  # 1 is a "mirror" not in the estimate map
    estimate = {0: 5}
    changes, _ = h_index_round(g, estimate, external={1: 0})
    assert changes == {0: 0}
    # Unknown external stays optimistic: no premature decrease.
    estimate = {0: 1}
    changes, _ = h_index_round(g, estimate, external={})
    assert changes == {}


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_kcore_program_equals_peeling(workers):
    g = community_graph(250, num_communities=5, intra_degree=5, seed=4)
    session = Session(
        g, num_workers=workers, partition="hash", check_monotonic=True
    )
    result = session.run(KCoreProgram(), KCoreQuery())
    assert result.answer == core_numbers(g)


def test_kcore_program_on_road_network():
    g = road_network(8, 8, seed=5)
    session = Session(g, num_workers=4, partition="bfs")
    result = session.run(KCoreProgram(), KCoreQuery())
    assert result.answer == core_numbers(g)


def test_kcore_monotone_decreasing_params():
    g = power_law(150, seed=6)
    session = Session(g, num_workers=4, check_monotonic=True)
    result = session.run(KCoreProgram(), KCoreQuery())
    assert result.checker is not None and result.checker.writes_seen > 0


def test_kcore_registered_in_library():
    from repro.engineapi.query import build_query
    from repro.engineapi.registry import get_program

    assert get_program("kcore").name == "kcore"
    assert build_query("kcore") is not None
