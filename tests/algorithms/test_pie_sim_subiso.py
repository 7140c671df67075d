"""PIE-program tests: distributed Sim and SubIso equal their oracles."""

import pytest

from repro.algorithms.sequential.simulation_seq import graph_simulation
from repro.algorithms.sequential.vf2 import find_subgraph_isomorphisms
from repro.algorithms.simulation import SimProgram, SimQuery
from repro.algorithms.subiso import SubIsoProgram, SubIsoQuery
from repro.core.engine import GrapeEngine
from repro.engineapi.session import Session
from repro.errors import ProgramError
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments, expand_fragments
from repro.graph.generators import labeled_social
from repro.partition.registry import get_partitioner


def _chain_pattern() -> Graph:
    p = Graph()
    p.add_vertex("a", label="person")
    p.add_vertex("b", label="person")
    p.add_vertex("c", label="product")
    p.add_edge("a", "b")
    p.add_edge("b", "c")
    return p


@pytest.mark.parametrize("strategy", ["hash", "multilevel"])
@pytest.mark.parametrize("workers", [2, 4])
def test_sim_equals_oracle(strategy, workers):
    g = labeled_social(120, seed=1)
    pattern = _chain_pattern()
    session = Session(
        g, num_workers=workers, partition=strategy, check_monotonic=True
    )
    result = session.run(SimProgram(), SimQuery(pattern=pattern))
    oracle = graph_simulation(g, pattern)
    assert {u: set(vs) for u, vs in result.answer.items()} == oracle


def test_sim_no_matches_when_label_absent():
    g = labeled_social(50, seed=2)
    pattern = Graph()
    pattern.add_vertex("z", label="alien")
    session = Session(g, num_workers=3)
    result = session.run(SimProgram(), SimQuery(pattern=pattern))
    assert result.answer == {"z": set()}


def test_sim_candidate_sets_shrink_monotonically():
    g = labeled_social(100, seed=3)
    session = Session(g, num_workers=4, check_monotonic=True)
    result = session.run(SimProgram(), SimQuery(pattern=_chain_pattern()))
    assert result.checker is not None and result.checker.writes_seen > 0


def test_sim_single_worker_equals_sequential():
    g = labeled_social(80, seed=4)
    pattern = _chain_pattern()
    session = Session(g, num_workers=1)
    result = session.run(SimProgram(), SimQuery(pattern=pattern))
    assert {u: set(v) for u, v in result.answer.items()} == graph_simulation(
        g, pattern
    )


# --------------------------------------------------------------- subiso
def _run_subiso(g, pattern, pivot, workers, strategy="hash"):
    query = SubIsoQuery(pattern=pattern, pivot=pivot)
    assignment = get_partitioner(strategy)(g, workers)
    fragd = build_fragments(g, assignment, workers, strategy)
    expanded = expand_fragments(g, fragd, query.radius())
    return GrapeEngine(expanded).run(SubIsoProgram(), query)


def _canon(matches):
    return {tuple(sorted(m.items())) for m in matches}


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_subiso_equals_oracle(workers):
    g = labeled_social(90, seed=5)
    pattern = _chain_pattern()
    result = _run_subiso(g, pattern, "a", workers)
    oracle = find_subgraph_isomorphisms(pattern, g)
    assert _canon(result.answer) == _canon(oracle)


def test_subiso_no_duplicate_matches_across_workers():
    g = labeled_social(90, seed=6)
    pattern = _chain_pattern()
    result = _run_subiso(g, pattern, "a", 4)
    assert len(result.answer) == len(_canon(result.answer))


def test_subiso_terminates_after_peval():
    g = labeled_social(60, seed=7)
    result = _run_subiso(g, _chain_pattern(), "a", 3)
    assert result.rounds == []  # no IncEval needed


def test_subiso_radius_computation():
    pattern = _chain_pattern()
    assert SubIsoQuery(pattern=pattern, pivot="a").radius() == 2
    assert SubIsoQuery(pattern=pattern, pivot="b").radius() == 1


def test_subiso_pivot_validation():
    pattern = _chain_pattern()
    with pytest.raises(ProgramError):
        SubIsoQuery(pattern=pattern, pivot="nope").radius()


def test_subiso_disconnected_pattern_rejected():
    pattern = Graph()
    pattern.add_vertex("a", label="person")
    pattern.add_vertex("b", label="person")
    with pytest.raises(ProgramError, match="connected"):
        SubIsoQuery(pattern=pattern, pivot="a").radius()


def test_subiso_max_matches_cap():
    g = labeled_social(90, seed=8)
    pattern = Graph()
    pattern.add_vertex("x", label="person")
    pattern.add_vertex("y", label="person")
    pattern.add_edge("x", "y", label="follow")
    query = SubIsoQuery(pattern=pattern, pivot="x", max_matches=5)
    assignment = get_partitioner("hash")(g, 3)
    fragd = build_fragments(g, assignment, 3)
    expanded = expand_fragments(g, fragd, query.radius())
    result = GrapeEngine(expanded).run(SubIsoProgram(), query)
    assert len(result.answer) == 5


def test_subiso_edge_labels_respected():
    g = labeled_social(90, seed=9)
    pattern = Graph()
    pattern.add_vertex("x", label="person")
    pattern.add_vertex("y", label="product")
    pattern.add_edge("x", "y", label="rate_bad")
    result = _run_subiso(g, pattern, "x", 3)
    for m in result.answer:
        assert g.edge_label(m["x"], m["y"]) == "rate_bad"
