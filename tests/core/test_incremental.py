"""Tests for incremental graph updates (ΔG): resume after insertions."""

import copy

import pytest

from repro.algorithms.bfs import BFSProgram, BFSQuery
from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.delta import EdgeInsert, apply_delta
from repro.core.engine import GrapeEngine
from repro.errors import ProgramError
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.graph.generators import (
    path_graph,
    random_weighted_digraph,
    road_network,
)
from repro.graph.metrics import bfs_layers
from repro.partition.registry import get_partitioner
from repro.utils.rng import make_rng


def _engine(graph, workers=4, strategy="hash"):
    assignment = get_partitioner(strategy)(graph, workers)
    fragd = build_fragments(graph, assignment, workers, strategy)
    return GrapeEngine(fragd)


# ------------------------------------------------------ apply_insertions
def test_apply_insertion_local_edge():
    g = Graph()
    g.add_edge(0, 1)
    g.add_vertex(2)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0}, 1)
    touched = apply_delta(fragd, [EdgeInsert(1, 2, 5.0)])
    assert touched == {0: [EdgeInsert(1, 2, 5.0)]}
    assert fragd.fragments[0].graph.edge_weight(1, 2) == 5.0


def test_apply_insertion_cross_edge_updates_borders():
    g = Graph()
    g.add_vertex(0)
    g.add_vertex(1)
    fragd = build_fragments(g, {0: 0, 1: 1}, 2)
    touched = apply_delta(fragd, [EdgeInsert(0, 1)])
    assert set(touched) == {0, 1}  # src side repairs, dst side exports
    f0, f1 = fragd.fragments
    assert f0.mirrors == {1: 1}
    assert f1.inner_border == {1}
    assert fragd.hosts(1) == {0, 1}
    assert f0.graph.has_edge(0, 1)


def test_apply_insertion_unknown_vertex_rejected():
    g = Graph()
    g.add_vertex(0)
    fragd = build_fragments(g, {0: 0}, 1)
    with pytest.raises(ProgramError):
        apply_delta(fragd, [EdgeInsert(0, 99)])


def test_apply_insertion_undirected_mirrors_both_sides():
    g = Graph(directed=False)
    g.add_vertex(0)
    g.add_vertex(1)
    fragd = build_fragments(g, {0: 0, 1: 1}, 2)
    touched = apply_delta(fragd, [EdgeInsert(0, 1)])
    assert set(touched) == {0, 1}
    assert fragd.fragments[1].graph.has_edge(1, 0)
    assert fragd.fragments[1].mirrors == {0: 0}


# ------------------------------------------------------------- programs
def test_sssp_incremental_matches_fresh_run():
    g = random_weighted_digraph(120, 480, seed=1)
    engine = _engine(g, 4)
    program = SSSPProgram()
    first = engine.run(program, SSSPQuery(source=0), keep_state=True)

    rng = make_rng(2, "ins")
    insertions = []
    vertices = list(g.vertices())
    while len(insertions) < 10:
        u, v = rng.choice(vertices), rng.choice(vertices)
        if u != v and not g.has_edge(u, v):
            insertions.append(EdgeInsert(u, v, 0.5 + rng.random()))
            g.add_edge(u, v, insertions[-1].weight)  # keep oracle in sync

    second = engine.run_incremental(
        program, SSSPQuery(source=0), first.state, insertions
    )
    oracle = single_source(g, 0)
    for v in g.vertices():
        got = second.answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        )


def test_sssp_incremental_cheaper_than_rerun():
    g = road_network(20, 20, seed=3, removal_prob=0.0)
    engine = _engine(g, 4, "bfs")
    program = SSSPProgram()
    first = engine.run(program, SSSPQuery(source=0), keep_state=True)

    # A shortcut that improves the far corner by a whisker: the affected
    # region is tiny, so the repair should be a fraction of the initial
    # fixpoint's settled-vertex work.
    corner = 399
    shortcut = EdgeInsert(0, corner, first.answer[corner] - 0.05)
    second = engine.run_incremental(
        program, SSSPQuery(source=0), first.state, [shortcut]
    )
    assert second.answer[corner] == pytest.approx(
        first.answer[corner] - 0.05
    )
    assert second.metrics.work() < first.metrics.work() / 5


def test_bfs_incremental_matches_fresh_run():
    g = random_weighted_digraph(100, 300, seed=4)
    engine = _engine(g, 3)
    program = BFSProgram()
    first = engine.run(program, BFSQuery(source=0), keep_state=True)
    insertions = [EdgeInsert(0, 57), EdgeInsert(57, 91)]
    for ins in insertions:
        if not g.has_edge(ins.src, ins.dst):
            g.add_edge(ins.src, ins.dst)
    second = engine.run_incremental(
        program, BFSQuery(source=0), first.state, insertions
    )
    oracle = bfs_layers(g, 0)
    got = {v: d for v, d in second.answer.items() if d < INF}
    assert got == {v: float(d) for v, d in oracle.items()}


TRAVERSALS = [
    pytest.param(SSSPProgram, SSSPQuery(source=0), id="sssp"),
    pytest.param(BFSProgram, BFSQuery(source=0), id="bfs"),
]


@pytest.mark.parametrize("parts", [1, 3])
@pytest.mark.parametrize("make_program,query", TRAVERSALS)
def test_undirected_insert_relaxes_both_arcs(make_program, query, parts):
    """Inserting (7, 0) into the undirected path 0-...-7 closes a cycle:
    7 is one step from the source, through the arc the op did not name."""
    engine = _engine(path_graph(8, directed=False), parts)
    first = engine.run(make_program(), query, keep_state=True)
    assert first.answer[7] == 7.0
    second = engine.run_incremental(
        make_program(), query, first.state, [EdgeInsert(7, 0, 1.0)]
    )
    assert second.answer == {
        0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 3.0, 6: 2.0, 7: 1.0
    }


@pytest.mark.parametrize("make_program,query", TRAVERSALS)
def test_traversal_entry_points_are_one_step(make_program, query):
    """IncEval, on_graph_update and repair_partial handed the same offer
    on the same fragment leave the same partial, charge the same work
    and publish the same parameters."""
    g = Graph()
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)]:
        g.add_edge(u, v, 1.0)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1}, 2)
    program = make_program()
    state = GrapeEngine(fragd).run(program, query, keep_state=True).state
    shortcut = EdgeInsert(0, 2, 1.0)  # dist(2): 2 -> 1, then 3 and mirror 4
    apply_delta(fragd, [shortcut])
    frag = fragd.fragments[0]
    assert 2 in frag.inner_border and 4 in frag.mirrors

    def step(call):
        partial = copy.deepcopy(state.partials[0])
        params = copy.deepcopy(state.params[0])
        params.apply_remote(2, 1.0)  # the offer, as M_i delivers it
        call(frag, query, partial, params)
        return (
            sorted(partial.items()),
            params.take_work(),
            params.consume_changes(),
            params.snapshot(),
        )

    inceval = step(lambda *a: program.inceval(*a, {2}))
    assert inceval[:3] == (
        [(0, 0.0), (1, 1.0), (2, 1.0), (3, 2.0), (4, 3.0)], 3, {4: 3.0}
    )
    assert step(lambda *a: program.on_graph_update(*a, [shortcut])) == inceval
    assert step(lambda *a: program.repair_partial(*a, {2})) == inceval


def test_cc_incremental_merges_components():
    g = Graph()
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    g.add_edge(10, 11)
    g.add_edge(11, 10)
    engine = _engine(g, 2, "range")
    program = CCProgram()
    first = engine.run(program, CCQuery(), keep_state=True)
    assert len(set(first.answer.values())) == 2

    g.add_edge(1, 10)
    second = engine.run_incremental(
        program, CCQuery(), first.state, [EdgeInsert(1, 10)]
    )
    assert set(second.answer.values()) == {0}
    assert second.answer == connected_components(g)


def test_cc_incremental_random_batches():
    g = random_weighted_digraph(80, 120, seed=5)
    engine = _engine(g, 4)
    program = CCProgram()
    result = engine.run(program, CCQuery(), keep_state=True)
    rng = make_rng(6, "cc-ins")
    vertices = list(g.vertices())
    for _ in range(4):  # several sequential update batches
        batch = []
        while len(batch) < 5:
            u, v = rng.choice(vertices), rng.choice(vertices)
            if u != v and not g.has_edge(u, v):
                batch.append(EdgeInsert(u, v))
                g.add_edge(u, v)
        result = engine.run_incremental(
            program, CCQuery(), result.state, batch
        )
        assert result.answer == connected_components(g)


def test_incremental_without_support_raises():
    from repro.algorithms.simulation import SimProgram, SimQuery

    g = Graph()
    g.add_vertex(0, label="a")
    g.add_vertex(1, label="a")
    engine = _engine(g, 1)
    pattern = Graph()
    pattern.add_vertex("x", label="a")
    first = engine.run(SimProgram(), SimQuery(pattern=pattern),
                       keep_state=True)
    with pytest.raises(NotImplementedError):
        engine.run_incremental(
            SimProgram(), SimQuery(pattern=pattern), first.state,
            [EdgeInsert(0, 1)],
        )


def test_incremental_with_direct_routing():
    g = random_weighted_digraph(80, 300, seed=9)
    assignment = get_partitioner("hash")(g, 3)
    fragd = build_fragments(g, assignment, 3)
    engine = GrapeEngine(fragd, routing="direct")
    program = SSSPProgram()
    first = engine.run(program, SSSPQuery(source=0), keep_state=True)
    insertions = [EdgeInsert(0, 41, 0.7)]
    if not g.has_edge(0, 41):
        g.add_edge(0, 41, 0.7)
    second = engine.run_incremental(
        program, SSSPQuery(source=0), first.state, insertions
    )
    oracle = single_source(g, 0)
    for v in g.vertices():
        got = second.answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        )


def test_incremental_rejects_non_engine_state():
    from repro.errors import StaleStateError

    g = road_network(5, 5, seed=2, removal_prob=0.0)
    engine = _engine(g)
    with pytest.raises(StaleStateError, match="keep_state=True"):
        engine.run_incremental(
            SSSPProgram(), SSSPQuery(source=0), {"partials": []},
            [EdgeInsert(0, 6, 0.5)],
        )


def test_incremental_rejects_state_from_other_program():
    from repro.errors import StaleStateError

    g = road_network(5, 5, seed=2, removal_prob=0.0)
    engine = _engine(g)
    first = engine.run(SSSPProgram(), SSSPQuery(source=0), keep_state=True)
    with pytest.raises(StaleStateError, match="produced by program 'sssp'"):
        engine.run_incremental(
            BFSProgram(), BFSQuery(source=0), first.state,
            [EdgeInsert(0, 6, 0.5)],
        )


def test_incremental_rejects_state_after_repartition():
    from repro.errors import StaleStateError

    g = road_network(5, 5, seed=2, removal_prob=0.0)
    first = _engine(g, workers=4).run(
        SSSPProgram(), SSSPQuery(source=0), keep_state=True
    )
    smaller = _engine(g, workers=2)
    with pytest.raises(StaleStateError, match="repartitioned"):
        smaller.run_incremental(
            SSSPProgram(), SSSPQuery(source=0), first.state,
            [EdgeInsert(0, 6, 0.5)],
        )


def test_state_records_provenance():
    g = road_network(5, 5, seed=2, removal_prob=0.0)
    engine = _engine(g, workers=3)
    result = engine.run(SSSPProgram(), SSSPQuery(source=0), keep_state=True)
    assert result.state.program_name == "sssp"
    assert result.state.num_fragments == 3


def test_state_absent_by_default():
    g = Graph()
    g.add_vertex(0)
    engine = _engine(g, 1)
    result = engine.run(SSSPProgram(), SSSPQuery(source=0))
    assert result.state is None
