"""Simulation Theorem tests: vertex programs run unmodified on GRAPE.

The claim under test (Section 2.2): Pregel-class BSP algorithms can be
simulated by GRAPE with the same number of supersteps. We run each
vertex program natively on the PregelEngine and wrapped through
:class:`VertexCentricAsPIE` on the GrapeEngine, then compare values and
superstep counts.
"""

import pytest

from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.baselines.pregel import PregelEngine
from repro.baselines.pregel_as_pie import VertexCentricAsPIE
from repro.baselines.pregel_programs import (
    PregelPageRank,
    PregelSSSP,
    PregelWCC,
)
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.graph.generators import power_law, road_network
from repro.partition.registry import get_partitioner


def _fragd(graph, workers=4, strategy="hash"):
    assignment = get_partitioner(strategy)(graph, workers)
    return build_fragments(graph, assignment, workers, strategy)


def _run_both(graph, make_program, workers=4, strategy="hash"):
    fragd = _fragd(graph, workers, strategy)
    native = PregelEngine(fragd).run(make_program())
    adapter = VertexCentricAsPIE(
        make_program(), num_vertices=graph.num_vertices
    )
    simulated = GrapeEngine(fragd).run(adapter, None)
    return native, simulated


def test_sssp_same_values(small_road_graph=None):
    g = road_network(8, 8, seed=1)
    native, simulated = _run_both(g, lambda: PregelSSSP(source=0))
    oracle = single_source(g, 0)
    for v in g.vertices():
        assert simulated.answer[v] == native.values[v]
        assert simulated.answer[v] == pytest.approx(oracle[v]) or (
            simulated.answer[v] == INF and oracle[v] == INF
        )


def test_sssp_same_superstep_count():
    g = road_network(8, 8, seed=1)
    native, simulated = _run_both(g, lambda: PregelSSSP(source=0))
    # GRAPE adds one Assemble superstep; compute rounds must match.
    assert simulated.num_supersteps - 1 == native.supersteps


def test_wcc_same_values_and_supersteps():
    g = power_law(120, seed=2)
    native, simulated = _run_both(g, PregelWCC)
    assert simulated.answer == native.values
    assert simulated.answer == connected_components(g)
    assert simulated.num_supersteps - 1 == native.supersteps


def test_pagerank_same_values():
    g = road_network(6, 6, seed=3)
    make = lambda: PregelPageRank(num_vertices=g.num_vertices, iterations=25)
    native, simulated = _run_both(g, make)
    for v in g.vertices():
        assert simulated.answer[v] == pytest.approx(native.values[v])


def test_combiner_respected():
    g = road_network(7, 7, seed=4)
    native, simulated = _run_both(
        g, lambda: PregelSSSP(source=0, use_combiner=True)
    )
    assert simulated.answer == native.values


@pytest.mark.parametrize("workers", [1, 2, 6])
def test_worker_count_does_not_change_simulation(workers):
    g = power_law(80, seed=5)
    native, simulated = _run_both(g, PregelWCC, workers=workers)
    assert simulated.answer == native.values


def test_locality_partition_fewer_bytes_same_answer():
    """The adapter inherits GRAPE's partition benefits automatically."""
    g = road_network(8, 8, seed=6)
    _, sim_hash = _run_both(g, lambda: PregelSSSP(source=0), strategy="hash")
    _, sim_bfs = _run_both(g, lambda: PregelSSSP(source=0), strategy="bfs")
    assert sim_hash.answer == sim_bfs.answer
    assert (
        sim_bfs.metrics.total_bytes < sim_hash.metrics.total_bytes
    )


def test_direct_routing_simulation_matches():
    g = road_network(7, 7, seed=7)
    fragd = _fragd(g, 4)
    native = PregelEngine(fragd).run(PregelSSSP(source=0))
    adapter = VertexCentricAsPIE(PregelSSSP(source=0), g.num_vertices)
    simulated = GrapeEngine(fragd).run(adapter, None)
    assert simulated.answer == native.values


def test_session_keep_state_passthrough():
    from repro.engineapi.session import Session
    from repro.algorithms.sssp import SSSPProgram, SSSPQuery

    g = road_network(5, 5, seed=8)
    session = Session(g, num_workers=2)
    result = session.run(SSSPProgram(), SSSPQuery(source=0), keep_state=True)
    assert result.state is not None


def test_isolated_fragment_wakes_up_correctly():
    # Fragment 1 owns a tail reached only late: its clock lags while
    # idle and must fast-forward on the first incoming batch.
    g = Graph()
    for i in range(5):
        g.add_edge(i, i + 1, 1.0)
    assignment = {v: (0 if v < 3 else 1) for v in g.vertices()}
    fragd = build_fragments(g, assignment, 2)
    adapter = VertexCentricAsPIE(PregelSSSP(source=0), g.num_vertices)
    result = GrapeEngine(fragd).run(adapter, None)
    assert result.answer == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 5.0}
