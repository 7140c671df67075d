"""SSSP and BFS compute in slot space without moving the dataflow.

The programs run their kernels over the fragment's slot view and keep a
:class:`SlotPartial` (a distance list beside the view's ids); offers and
published values stay per vertex. So the work charged, supersteps and
messages are the ones the vertex-keyed programs produced (pinned below
as recorded before the change), the partial still reads as
``{vertex: distance}``, and a partial laid out over one numbering is
carried over to another — adopted when it is a prefix, re-laid by
vertex otherwise (a fresh worker pool after ``Session.close``).
"""

import pickle

import pytest

from repro.algorithms.bfs import BFSProgram, BFSQuery
from repro.algorithms.sssp import (
    INF,
    SlotPartial,
    SSSPProgram,
    SSSPQuery,
    slot_layout,
)
from repro.core.engine import GrapeEngine
from repro.engineapi.session import Session
from repro.graph.fragment import SlotView, build_fragments
from repro.graph.generators import graph_from_spec
from repro.partition.registry import get_partitioner
from repro.runtime.costmodel import CostModel
from repro.service.service import canonical_answer_bytes

PROGRAMS = {
    "sssp": (SSSPProgram, SSSPQuery(source=0)),
    "bfs": (BFSProgram, BFSQuery(source=0)),
}

#: (work("peval"), work("inceval"), supersteps, messages) on road:12x12.
DATAFLOW = [
    ("hash", 4, "sssp", (25, 460, 14, 36)),
    ("hash", 4, "bfs", (25, 428, 13, 29)),
    ("multilevel", 3, "sssp", (64, 204, 6, 10)),
    ("multilevel", 3, "bfs", (64, 236, 6, 9)),
]


@pytest.mark.parametrize("strategy,workers,name,dataflow", DATAFLOW)
def test_slot_kernels_keep_the_vertex_keyed_dataflow(
    strategy, workers, name, dataflow
):
    graph = graph_from_spec("road:12x12")
    assignment = get_partitioner(strategy)(graph, workers)
    fragd = build_fragments(graph, assignment, workers, strategy)
    make, query = PROGRAMS[name]
    metrics = GrapeEngine(
        fragd, cost_model=CostModel(deterministic=True)
    ).run(make(), query).metrics
    assert (
        metrics.work("peval"),
        metrics.work("inceval"),
        len(metrics.supersteps),
        metrics.total_messages,
    ) == dataflow


def test_a_slot_partial_reads_as_its_finite_distances():
    partial = SlotPartial(["a", "b", "c", "d"], [0.0, INF, 2.5])
    assert partial == {"a": 0.0, "c": 2.5}  # "b" unreached, "d" unlaid
    assert dict(partial.items()) == {"a": 0.0, "c": 2.5}
    assert len(partial) == 2 and "b" not in partial and partial["c"] == 2.5
    assert pickle.loads(pickle.dumps(partial)) == partial


def _fragments():
    """road:6x6 cut between rows 2 and 3."""
    graph = graph_from_spec("road:6x6")
    return build_fragments(graph, {v: int(v >= 18) for v in range(36)}, 2)


def _fragment():
    return _fragments().fragments[0]


def test_a_partial_over_the_view_only_pads_what_was_appended():
    fragd = _fragments()
    frag = fragd.fragments[0]
    view = frag.slot_view()
    partial = SlotPartial(view.ids, [float(s) for s in range(len(view.ids))])
    dist = list(partial.dist)
    far = max(v for v in fragd.fragments[1].owned if v not in view.index)
    fragd.insert_edge(min(frag.owned), far, 1.0)  # ΔG appends a slot
    assert slot_layout(frag, partial) is view
    assert partial.ids is view.ids and partial.dist[: len(dist)] == dist
    assert partial.dist[view.index[far]] == INF
    assert len(partial.dist) == len(view.ids)


def test_a_pickled_copy_adopts_the_views_ids():
    frag = _fragment()
    view = frag.slot_view()
    partial = SlotPartial(view.ids, [float(s) for s in range(len(view.ids))])
    copy = pickle.loads(pickle.dumps(partial))
    assert copy.ids is not view.ids
    slot_layout(frag, copy)
    assert copy.ids is view.ids and copy == partial


def test_a_partial_over_another_numbering_is_relaid_by_vertex():
    frag = _fragment()
    view = frag.slot_view()
    at = {v: float(s) for s, v in enumerate(view.ids)}
    shuffled = list(reversed(view.ids)) + ["gone"]
    partial = SlotPartial(shuffled, [at.get(v, 7.0) for v in shuffled])
    slot_layout(frag, partial)
    assert partial.ids is view.ids
    assert partial == at  # "gone" is not in the fragment any more


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_a_fresh_worker_pool_relays_the_kept_partials(name):
    """A batch adds a mirror and the next prunes one the build made (the
    pool's views keep its dead slot mid-list), ``Session.close`` drops
    the pool, and the last batch runs on workers whose fresh views
    number the fragments differently — the kept partials are re-laid by
    vertex and answer like a cold run."""
    graph = graph_from_spec("road:6x6")
    session = Session(graph, num_workers=3, backend="process")
    make, query = PROGRAMS[name]
    program = make()
    fragd = session.fragmented
    far = next(
        v for v in (35, 34, 29, 28) if fragd.owner_of(v) != fragd.owner_of(0)
    )
    # a built mirror that one local arc alone keeps
    tail, lone = next(
        (frag.graph.in_neighbors(m)[0], m)
        for frag in fragd.fragments
        for m in list(frag.mirrors)[:-1]
        if frag.graph.in_degree(m) == 1 and not frag.graph.out_degree(m)
    )
    batches = [
        [("insert", 0, far, 0.5)],  # a new mirror, appended
        [("delete", tail, lone)],  # a built mirror pruned
        [("insert", 5, 30, 0.5)],  # after the pool is replaced
    ]
    oracle = graph.copy()
    try:
        state = session.run(program, query, keep_state=True).state
        for step, ops in enumerate(batches):
            if step == 2:
                session.close()
                fresh = [SlotView(f).ids for f in fragd.fragments]
                assert any(
                    p.ids != ids for p, ids in zip(state.partials, fresh)
                )
            result = session.engine().run_incremental(
                program, query, state, ops
            )
            state = result.state
            for kind, src, dst, *weight in ops:
                if kind == "insert":
                    oracle.add_edge(src, dst, *weight)
                else:
                    oracle.remove_edge(src, dst)
            cold = Session(oracle.copy(), num_workers=3).run(program, query)
            assert canonical_answer_bytes(
                result.answer
            ) == canonical_answer_bytes(cold.answer), f"batch {step}"
    finally:
        session.close()
