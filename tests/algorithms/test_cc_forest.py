"""Regression tests for CC's local-connectivity deletion triage.

A deleted edge whose endpoints remain locally connected cannot split a
component, so ``CCProgram.delta_seeds`` must yield no seeds for it —
the invalidated region stays empty, no repair superstep runs, and the
answer is byte-identical. A genuine bridge deletion must still route
through the full invalidate-and-recompute path.
"""

import pytest

from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sequential.cc_seq import (
    connected_components,
    local_connectivity,
)
from repro.core.delta import EdgeDelete
from repro.core import engine as engine_module
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments


def _cycle_plus_tail():
    """Cycle 0-1-2-3-0 in fragment 0, tail 4-5 hung off via bridge 3-4."""
    g = Graph(directed=False)
    for v in range(6):
        g.add_vertex(v)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)]:
        g.add_edge(u, v)
    assignment = {0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
    return g, build_fragments(g, assignment, 2)


@pytest.fixture(autouse=True)
def _never_restart(monkeypatch):
    # The cases pin the scoped path: no region may tip it into a restart.
    monkeypatch.setattr(engine_module, "REPAIR_FRACTION", 1.0)


def _kept_run():
    g, fragd = _cycle_plus_tail()
    engine = GrapeEngine(fragd)
    program = CCProgram()
    query = CCQuery()
    first = engine.run(program, query, keep_state=True)
    return g, engine, program, query, first


def test_off_forest_delete_empty_region_same_answer():
    g, engine, program, query, first = _kept_run()
    before = dict(first.answer)
    second = engine.run_incremental(
        program, query, first.state, [("delete", 3, 0)]
    )
    # The cycle edge 3-0 is off every spanning forest of fragment 0:
    # 3 and 0 stay connected through 0-1-2-3, so nothing is invalidated.
    assert second.repair.mode == "scoped"
    assert second.repair.unsafe_ops == 1
    assert second.repair.invalidated == 0
    assert second.repair.fragments == {}
    # ... so no worker ran repair_partial.
    assert not any(
        s.phase == "repair" and s.active_workers
        for s in second.metrics.supersteps
    )
    assert second.answer == before
    g.remove_edge(3, 0)
    assert second.answer == connected_components(g)


def test_tree_edge_delete_with_alternative_path_also_absolved():
    # 2-3 lands on the maintained forest, but after the (already
    # applied) deletion the rebuilt forest still connects 2 and 3 via
    # the cycle — the exactness of the rebuilt test keeps the region
    # empty even when the O(1) certificate fails.
    g, engine, program, query, first = _kept_run()
    second = engine.run_incremental(
        program, query, first.state, [("delete", 2, 3)]
    )
    assert second.repair.invalidated == 0
    g.remove_edge(2, 3)
    assert second.answer == connected_components(g)


def test_bridge_delete_still_repairs_split():
    g, engine, program, query, first = _kept_run()
    second = engine.run_incremental(
        program, query, first.state, [("delete", 3, 4)]
    )
    # 3-4 is a bridge: the tail {4, 5} becomes its own component and
    # must be relabeled, so the region is non-empty this time.
    assert second.repair.unsafe_ops == 1
    assert second.repair.invalidated > 0
    g.remove_edge(3, 4)
    assert second.answer == connected_components(g)
    assert second.answer[4] == 4 and second.answer[5] == 4


def test_forest_maintained_across_inserts():
    g, engine, program, query, first = _kept_run()
    # Insert a chord, then delete a former tree edge: the insertion is
    # folded into the forest by on_graph_update, so the later deletion
    # still resolves to an empty region.
    mid = engine.run_incremental(
        program, query, first.state, [("insert", 1, 3, 1.0)]
    )
    assert mid.repair.mode == "monotone"
    second = engine.run_incremental(
        program, query, mid.state, [("delete", 1, 2)]
    )
    assert second.repair.invalidated == 0
    g.add_edge(1, 3)
    g.remove_edge(1, 2)
    assert second.answer == connected_components(g)


def test_local_connectivity_unit_certificates():
    g = Graph(directed=False)
    for v in range(4):
        g.add_vertex(v)
    for u, v in [(0, 1), (1, 2), (2, 0)]:
        g.add_edge(u, v)
    dsu = local_connectivity(g)
    assert dsu.connected(0, 2)
    assert not dsu.connected(0, 3)
    assert 9 not in dsu  # unknown endpoint: no certificate
    g.add_edge(3, 0)
    assert local_connectivity(g).connected(3, 1)
    # delta_seeds reads it off the already-mutated fragment: deleting a
    # cycle edge seeds nothing, an unknown endpoint is never absolved.
    _, fragd = _cycle_plus_tail()
    frag, program = fragd.fragments[0], CCProgram()
    partial = connected_components(frag.graph)
    frag.graph.remove_edge(3, 0)
    assert program.delta_seeds(
        frag, CCQuery(), partial, [EdgeDelete(3, 0)]
    ) == set()
    assert program.delta_seeds(
        frag, CCQuery(), partial, [EdgeDelete(0, 9)]
    ) == {0}
    assert vars(program) == {}
