"""Integration: fragment expansion and worker-count ablations hold."""

from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.algorithms.subiso import SubIsoProgram, SubIsoQuery
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments, expand_fragments
from repro.graph.generators import labeled_social, road_network
from repro.partition.registry import get_partitioner


def test_expansion_cost_grows_with_radius():
    """The SubIso replication trade-off: radius buys locality with space."""
    g = labeled_social(200, seed=4)
    fragd = build_fragments(g, get_partitioner("hash")(g, 4), 4)
    sizes = []
    for radius in (0, 1, 2):
        exp = expand_fragments(g, fragd, radius)
        sizes.append(
            sum(f.graph.num_vertices for f in exp.fragments)
        )
    assert sizes[0] < sizes[1] <= sizes[2]


def test_subiso_scales_down_peval_makespan():
    """Fig. 4 claim: more workers -> faster potential-customer search."""
    g = labeled_social(500, seed=5, interaction_prob=0.5)
    pattern = Graph()
    pattern.add_vertex("x", label="person")
    pattern.add_vertex("z", label="person")
    pattern.add_vertex("y", label="product")
    pattern.add_edge("x", "z", label="follow")
    pattern.add_edge("z", "y", label="recommend")
    query = SubIsoQuery(pattern=pattern, pivot="x")

    makespans = {}
    for workers in (1, 8):
        fragd = build_fragments(
            g, get_partitioner("hash")(g, workers), workers
        )
        exp = expand_fragments(g, fragd, query.radius())
        result = GrapeEngine(exp).run(SubIsoProgram(), query)
        makespans[workers] = result.metrics.phase_time("peval")
    assert makespans[8] < makespans[1]


def test_more_workers_do_not_change_answers():
    g = road_network(8, 8, seed=6)
    answers = []
    for workers in (1, 2, 6):
        fragd = build_fragments(
            g, get_partitioner("hash")(g, workers), workers
        )
        result = GrapeEngine(fragd).run(SSSPProgram(), SSSPQuery(source=0))
        answers.append(
            {v: round(d, 9) for v, d in result.answer.items() if d < 1e17}
        )
    assert answers[0] == answers[1] == answers[2]
