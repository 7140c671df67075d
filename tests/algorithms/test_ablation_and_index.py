"""Tests for the ablation variants: recompute-IncEval and indexed Sim."""

import pytest

from repro.algorithms.ablation import SSSPRecomputeProgram
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sequential.simulation_seq import graph_simulation
from repro.algorithms.simulation import SimProgram, SimQuery
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.engineapi.session import Session
from repro.graph.digraph import Graph
from repro.graph.generators import labeled_random, road_network


def test_recompute_program_same_answers():
    g = road_network(8, 8, seed=1)
    session = Session(g, num_workers=4, partition="bfs")
    bounded = session.run(SSSPProgram(), SSSPQuery(source=0))
    recompute = session.run(SSSPRecomputeProgram(), SSSPQuery(source=0))
    oracle = single_source(g, 0)
    for v in g.vertices():
        b = bounded.answer.get(v, INF)
        r = recompute.answer.get(v, INF)
        assert b == pytest.approx(oracle[v]) or (b == INF and oracle[v] == INF)
        assert r == pytest.approx(oracle[v]) or (r == INF and oracle[v] == INF)


def test_recompute_does_strictly_more_work():
    """E5's point: bounded IncEval work << full recomputation work."""
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    session = Session(g, num_workers=4, partition="bfs")
    bounded = session.run(SSSPProgram(), SSSPQuery(source=0))
    recompute = session.run(SSSPRecomputeProgram(), SSSPQuery(source=0))
    assert bounded.metrics.work("inceval") < recompute.metrics.work("inceval")


def test_recompute_inceval_touches_fragment_scale():
    g = road_network(10, 10, seed=3, removal_prob=0.0)
    session = Session(g, num_workers=4, partition="bfs")
    result = session.run(SSSPRecomputeProgram(), SSSPQuery(source=0))
    per_fragment = g.num_vertices / 4
    # work_max is the busiest worker's IncEval call of a round.
    inceval_counts = [
        s.work_max for s in result.metrics.supersteps if s.phase == "inceval"
    ]
    assert inceval_counts and max(inceval_counts) >= per_fragment * 0.5


# ---------------------------------------------------------- indexed sim
def _two_label_pattern() -> Graph:
    p = Graph()
    p.add_vertex("a", label="L0")
    p.add_vertex("b", label="L1")
    p.add_edge("a", "b")
    return p


def test_indexed_sim_same_answer():
    g = labeled_random(300, num_labels=15, seed=4)
    pattern = _two_label_pattern()
    session = Session(g, num_workers=3)
    plain = session.run(SimProgram(use_index=False), SimQuery(pattern=pattern))
    indexed = session.run(SimProgram(use_index=True), SimQuery(pattern=pattern))
    assert plain.answer == indexed.answer
    assert {u: set(v) for u, v in plain.answer.items()} == graph_simulation(
        g, pattern
    )


def test_indexed_sim_does_less_refinement_work():
    g = labeled_random(400, num_labels=20, seed=5)
    pattern = _two_label_pattern()
    session = Session(g, num_workers=2)
    query = SimQuery(pattern=pattern)
    plain = session.run(SimProgram(use_index=False), query)
    indexed = session.run(SimProgram(use_index=True), query)
    assert indexed.metrics.work() < plain.metrics.work()


def test_indexed_sim_falls_back_on_wildcards():
    g = labeled_random(100, num_labels=5, seed=6)
    pattern = Graph()
    pattern.add_vertex("w")  # wildcard label
    session = Session(g, num_workers=2)
    result = session.run(SimProgram(use_index=True), SimQuery(pattern=pattern))
    assert result.answer["w"] == set(g.vertices())
