"""PIE-program tests: distributed SSSP and CC equal their oracles."""

import pytest

from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.engine import GrapeEngine
from repro.engineapi.session import Session
from repro.graph.digraph import Graph
from repro.graph.generators import (
    power_law,
    random_weighted_digraph,
    road_network,
)

STRATEGIES = ["hash", "range", "bfs", "multilevel"]


def _sssp_matches(graph, source, workers, strategy):
    session = Session(
        graph, num_workers=workers, partition=strategy, check_monotonic=True
    )
    result = session.run(SSSPProgram(), SSSPQuery(source=source))
    oracle = single_source(graph, source)
    for v in graph.vertices():
        got = result.answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        ), f"vertex {v}: {got} != {oracle[v]}"
    return result


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_sssp_road_all_strategies(strategy):
    g = road_network(8, 8, seed=1)
    _sssp_matches(g, 0, 4, strategy)


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
def test_sssp_worker_counts(workers):
    g = random_weighted_digraph(80, 320, seed=2)
    _sssp_matches(g, 0, workers, "hash")


def test_sssp_source_not_first_vertex():
    g = road_network(6, 6, seed=3)
    _sssp_matches(g, 17, 3, "hash")


def test_sssp_unreachable_vertices_inf():
    g = Graph()
    g.add_edge(0, 1, 2.0)
    g.add_vertex(9)
    session = Session(g, num_workers=2, partition="hash")
    result = session.run(SSSPProgram(), SSSPQuery(source=0))
    assert result.answer.get(9, INF) == INF


def test_sssp_single_vertex_graph():
    g = Graph()
    g.add_vertex(0)
    session = Session(g, num_workers=1)
    result = session.run(SSSPProgram(), SSSPQuery(source=0))
    assert result.answer[0] == 0.0


def test_sssp_source_missing_from_graph():
    g = Graph()
    g.add_edge(0, 1)
    session = Session(g, num_workers=2)
    result = session.run(SSSPProgram(), SSSPQuery(source=77))
    assert all(d == INF for d in result.answer.values()) or not result.answer


def test_sssp_work_is_metered():
    g = road_network(6, 6, seed=4)
    program = SSSPProgram()
    result = Session(g, num_workers=4).run(program, SSSPQuery(source=0))
    assert result.metrics.work("peval") > 0
    assert result.metrics.work("inceval") > 0
    assert vars(program) == {}  # a run leaves nothing on the program


def test_sssp_monotone_params_decrease():
    """Example-1 claim (a): update parameters decrease monotonically."""
    g = road_network(7, 7, seed=5)
    session = Session(g, num_workers=4, check_monotonic=True)
    result = session.run(SSSPProgram(), SSSPQuery(source=0))
    assert result.checker is not None and result.checker.writes_seen > 0


def test_sssp_fewer_supersteps_than_pregel_wavefronts():
    """GRAPE needs O(fragment-crossings) rounds, far below the hop count."""
    g = road_network(12, 12, seed=6, removal_prob=0.0)
    session = Session(g, num_workers=4, partition="bfs")
    result = session.run(SSSPProgram(), SSSPQuery(source=0))
    assert result.num_supersteps < 30  # 23-hop grid, many more waves


# ------------------------------------------------------------------- cc
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_cc_power_law_all_strategies(strategy):
    g = power_law(150, seed=7)
    session = Session(
        g, num_workers=4, partition=strategy, check_monotonic=True
    )
    result = session.run(CCProgram(), CCQuery())
    assert result.answer == connected_components(g)


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_cc_multiple_components(workers):
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(10, 11)
    g.add_edge(20, 21)
    g.add_vertex(99)
    session = Session(g, num_workers=workers)
    result = session.run(CCProgram(), CCQuery())
    assert result.answer == connected_components(g)


def test_cc_component_count_matches():
    g = power_law(120, seed=8)
    g.add_edge(1000, 1001)  # extra island
    session = Session(g, num_workers=3)
    result = session.run(CCProgram(), CCQuery())
    assert len(set(result.answer.values())) == len(
        set(connected_components(g).values())
    )


def test_cc_labels_are_component_minima():
    g = Graph()
    g.add_edge(5, 3)
    g.add_edge(3, 8)
    session = Session(g, num_workers=2)
    result = session.run(CCProgram(), CCQuery())
    assert set(result.answer.values()) == {3}
