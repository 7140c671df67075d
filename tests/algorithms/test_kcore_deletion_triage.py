"""Degree-threshold triage of k-core deletions.

The triage (``KCoreProgram.deletion_region``) mirrors CC's
spanning-forest shortcut: most deletions are provably harmless and must
produce an *empty* invalidated region — no seeds, no H-index rounds, no
repair work — while still repairing the cases that do matter down to
the cold-recompute answer.
"""

from __future__ import annotations

from repro.algorithms.kcore import KCoreProgram, KCoreQuery
from repro.algorithms.sequential.kcore_seq import core_numbers
from repro.core.delta import GraphDelta
from repro.core.engine import GrapeEngine
from repro.engineapi.session import Session
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments


def _symmetric(edges) -> Graph:
    g = Graph(directed=False)
    for src, dst in edges:
        g.add_edge(src, dst)
    return g


def _c5_with_chord() -> Graph:
    # A 5-cycle (every vertex core 2) plus chord (0, 2): the chord's
    # endpoints have degree 3, but deleting it leaves both with the two
    # cycle neighbors still at estimate 2 — a non-core deletion.
    return _symmetric([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


def _single_fragment(graph: Graph):
    assignment = {v: 0 for v in graph.vertices()}
    return build_fragments(graph, assignment, 1, "manual")


def test_non_core_deletion_has_empty_region():
    graph = _c5_with_chord()
    fragmented = _single_fragment(graph)
    engine = GrapeEngine(fragmented)
    program = KCoreProgram()
    cold = engine.run(program, KCoreQuery(), keep_state=True)
    assert cold.answer == core_numbers(graph)

    delta = GraphDelta.from_dict({"delete": [[0, 2]]})
    inc = engine.run_incremental(program, KCoreQuery(), cold.state, delta)

    # Both endpoints keep >= 2 supporters at level 2: provably
    # unaffected, so the triage seeds nothing and repairs nothing.
    assert inc.metrics.work("update") == 0
    assert inc.repair.as_dict().get("invalidated", 0) == 0
    assert inc.answer == core_numbers(_symmetric(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    ))


def test_deletion_region_triage_arms():
    graph = _c5_with_chord()
    fragmented = _single_fragment(graph)
    fragment = fragmented.fragments[0]
    engine = GrapeEngine(fragmented)
    program = KCoreProgram()
    cold = engine.run(program, KCoreQuery(), keep_state=True)
    partial = cold.state.partials[0]
    params = cold.state.params[0]

    class _Op:
        kind = "delete"

        def __init__(self, src, dst):
            self.src = src
            self.dst = dst

    # Chord deletion: degrees stay >= 2 and both endpoints keep two
    # level-2 supporters — empty region, no caps.
    caps, dirty = program.deletion_region(
        fragment, dict(partial), params, [_Op(0, 2)]
    )
    assert caps == {} and dirty == set()

    # Degree arm: drop vertex 4 to a single neighbor — its estimate
    # must be capped to the new degree and the drop can cascade.
    fragment.graph.remove_edge(4, 0)
    caps, dirty = program.deletion_region(
        fragment, dict(partial), params, [_Op(4, 0)]
    )
    assert caps.get(4) == 1
    assert 4 in dirty and 3 in dirty


def test_core_deletion_still_repairs_to_cold_answer():
    # K4 plus a pendant: deleting a K4 edge is a *core* deletion (the
    # supporters test fails), so the triage must seed it and the
    # settle loop must land on the cold-recompute answer.
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]
    graph = _symmetric(edges)
    session = Session(graph, num_workers=2, partition="hash")
    program = KCoreProgram()
    cold = session.run(program, KCoreQuery(), keep_state=True)
    assert cold.answer == core_numbers(graph)

    delta = GraphDelta.from_dict({"delete": [[0, 1]]})
    engine = session.engine()
    inc = engine.run_incremental(program, KCoreQuery(), cold.state, delta)
    remaining = [e for e in edges if e != (0, 1)]
    assert inc.answer == core_numbers(_symmetric(remaining))
