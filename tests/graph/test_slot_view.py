"""A fragment's slot view stays in step with ΔG and never renumbers.

``Fragment.slot_view()`` is built once; from then on every effect
record :func:`apply_fragment_effects` replays refreshes the slots it
touched. After any seeded sequence of inserts (creating mirrors),
deletes (pruning them), reweights and a pruned mirror coming back, the
maintained view must read, vertex by vertex, exactly as a fresh build
of the mutated fragment — rows, weights and border flags — while every
slot handed out earlier still names the same vertex.
"""

import pickle
import random

import pytest

from repro.algorithms.cc import CCProgram, CCQuery
from repro.engineapi.session import Session
from repro.graph.csr import CSRStore
from repro.graph.fragment import SlotView, build_fragments
from repro.graph.generators import random_weighted_digraph, road_network
from repro.partition.registry import get_partitioner

STORES = {
    "dict": "dict",
    "csr": "csr",
    "csr/compact3": CSRStore(compact_threshold=3),
}


def by_vertex(view: SlotView, graph) -> dict:
    """``{vertex: (row as (vertex, weight) pairs, border)}`` over the
    vertices ``graph`` holds — what slot numbering must not change."""
    ids = view.ids
    return {
        v: ([(ids[t], w) for t, w in view.out[s]], view.border[s])
        for s, v in enumerate(ids)
        if graph.has_vertex(v)
    }


def check_view(frag, earlier: list, rows: bool = True) -> None:
    """The maintained view against a fresh build; ``rows=False`` leaves
    the rows unread (unbuilt, if nothing read them yet)."""
    view = frag.slot_view()
    assert view.ids[: len(earlier)] == earlier  # nothing renumbered
    assert view.index == {v: s for s, v in enumerate(view.ids)}
    fresh = SlotView(frag)
    if not rows:
        flags = {v: f for v, f in zip(view.ids, view.border)
                 if frag.graph.has_vertex(v)}
        assert flags == dict(zip(fresh.ids, fresh.border))
        return
    assert by_vertex(view, frag.graph) == by_vertex(fresh, frag.graph)
    for s, v in enumerate(view.ids):
        if not frag.graph.has_vertex(v):  # left: slot kept, row emptied
            assert view.out[s] == [] and not view.border[s]


def _ops(fragd, graph, rng, count: int):
    """A seeded mix of cross inserts, deletes (of inserted and original
    edges), reweights, and re-inserts of edges deleted before — drawn
    lazily, each against the fragments as the ops before it left them."""
    edges = [(e.src, e.dst) for e in graph.edges()]
    vertices = list(graph.vertices())
    inserted, deleted = [], []

    def present(src, dst) -> bool:
        return fragd.fragment_of(src).graph.has_edge(src, dst)

    for _ in range(count):
        roll = rng.random()
        if roll < 0.35:
            src, dst = rng.sample(vertices, 2)
            if fragd.owner_of(src) != fragd.owner_of(dst) and not present(
                src, dst
            ):
                inserted.append((src, dst))
                yield "insert", src, dst, rng.choice([0.5, 1.0, 3.0])
        elif roll < 0.6 and (inserted or edges):
            pool = inserted if inserted and rng.random() < 0.6 else edges
            src, dst = pool.pop(rng.randrange(len(pool)))
            if present(src, dst):
                deleted.append((src, dst))
                yield "delete", src, dst
        elif roll < 0.8 and deleted:
            src, dst = deleted.pop(rng.randrange(len(deleted)))
            if not present(src, dst):
                inserted.append((src, dst))
                yield "insert", src, dst, 2.0
        elif edges:
            src, dst = rng.choice(edges)
            if present(src, dst):
                yield "reweight", src, dst, rng.choice([0.25, 4.0])


def _replay(store: str, directed: bool, seed: int, rows: bool) -> None:
    """Seeded ΔG over 3 fragments whose views are held to a fresh build
    after every op. With ``rows``, the rows are built up front and every
    op refreshes them; without, ops keep only slots and border flags,
    and the rows built after the last op read as a fresh build's."""
    if directed:
        graph = random_weighted_digraph(30, 70, seed=seed)
    else:
        graph = road_network(5, 6, seed=seed)
    assignment = get_partitioner("hash")(graph, 3)
    fragd = build_fragments(graph, assignment, 3, store=STORES[store])
    views = [frag.slot_view() for frag in fragd.fragments]
    for view in views:
        if rows:
            view.out
    rng = random.Random(seed)
    for kind, src, dst, *weight in _ops(fragd, graph, rng, 40):
        earlier = [list(view.ids) for view in views]
        if kind == "insert":
            fragd.insert_edge(src, dst, weight[0])
        elif kind == "delete":
            fragd.delete_edge(src, dst)
        else:
            fragd.reweight_edge(src, dst, weight[0])
        for frag, view, ids in zip(fragd.fragments, views, earlier):
            assert frag.slot_view() is view
            check_view(frag, ids, rows)
    for frag, view in zip(fragd.fragments, views):
        assert ("out" in vars(view)) is rows
        check_view(frag, list(view.ids))


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
@pytest.mark.parametrize("seed", range(4))
def test_maintained_view_equals_a_fresh_build(store, directed, seed):
    _replay(store, directed, seed, rows=True)


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
def test_a_rowless_view_keeps_its_slots_and_flags(store, directed):
    _replay(store, directed, seed=0, rows=False)


def test_a_pruned_mirror_that_returns_keeps_its_slot():
    graph = road_network(4, 4, seed=1, removal_prob=0.0)
    fragd = build_fragments(graph, {v: int(v >= 8) for v in range(16)}, 2)
    frag = fragd.fragments[0]
    view = frag.slot_view()
    fragd.insert_edge(0, 15, 1.0)  # 15: a new mirror in fragment 0
    slot = view.index[15]
    assert view.ids[slot] == 15 and view.border[slot]
    fragd.delete_edge(0, 15)  # pruned again
    assert 15 not in frag.mirrors and not frag.graph.has_vertex(15)
    assert view.out[slot] == [] and not view.border[slot]
    assert 15 not in SlotView(frag).index  # a fresh build drops it
    fragd.insert_edge(0, 15, 2.0)  # back: same slot, live row
    assert view.index[15] == slot and view.border[slot]
    assert view.border_slots.count(slot) == 2  # flagged twice, logged twice
    check_view(frag, list(view.ids))


def test_a_fresh_kept_run_declares_a_pruned_mirror_that_returns():
    """A store bound after ΔG pruned a mirror declares from the flags of
    the day; when the cross edge comes back, the view logs the slot
    again, so the store declares it and CC's ΔG hook may write it."""
    session = Session(
        road_network(4, 4, seed=1, removal_prob=0.0), num_workers=2,
        partition="range",
    )
    program, query = CCProgram(), CCQuery()
    engine = session.engine()
    assert session.fragmented.owner_of(0) != session.fragmented.owner_of(15)
    state = session.run(program, query, keep_state=True).state
    state = engine.run_incremental(
        program, query, state, [("insert", 0, 15, 1.0)]
    ).state
    engine.run_incremental(program, query, state, [("delete", 0, 15)])
    state = session.run(program, query, keep_state=True).state  # fresh
    result = engine.run_incremental(
        program, query, state, [("insert", 0, 15, 2.0)]
    )
    assert result.answer == session.run(program, query).answer


def test_the_view_is_not_pickled():
    graph = road_network(4, 4, seed=1)
    fragd = build_fragments(graph, get_partitioner("hash")(graph, 2), 2)
    frag = fragd.fragments[0]
    before = pickle.dumps(frag)
    frag.slot_view()
    assert pickle.dumps(frag) == before
    assert "_slot_view" not in vars(pickle.loads(before))


def assert_view_reads_as_rows(frag) -> None:
    """A fresh view (read from the store's columns on CSR) holds exactly
    the rows the vertex-by-vertex ``_row`` reader gives, weight types
    included."""
    view = SlotView(frag)
    inner, mirrors = frag.inner_border, frag.mirrors
    assert view.index == {v: s for s, v in enumerate(view.ids)}
    assert repr(view.out) == repr([view._row(frag.graph, v) for v in view.ids])
    assert view.border == [v in inner or v in mirrors for v in view.ids]


@pytest.mark.parametrize("store", sorted(STORES))
@pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
def test_a_view_read_from_columns_equals_the_row_reader(store, directed):
    if directed:
        graph = random_weighted_digraph(30, 70, seed=5)
    else:
        graph = road_network(5, 6, seed=5)
    assignment = get_partitioner("hash")(graph, 3)
    fragd = build_fragments(graph, assignment, 3, store=STORES[store])
    for frag in fragd.fragments:  # fresh: the base columns as they are
        assert_view_reads_as_rows(frag)
    for kind, src, dst, *weight in _ops(fragd, graph, random.Random(5), 40):
        if kind == "insert":
            fragd.insert_edge(src, dst, weight[0])
        elif kind == "delete":
            fragd.delete_edge(src, dst)
        else:
            fragd.reweight_edge(src, dst, weight[0])
    # a mirror pruned (its slot goes dead) and re-added past the base,
    # with an integer weight the overlay keeps as given
    src = next(v for v in fragd.fragments[0].owned)
    dst = next(v for v in graph.vertices() if fragd.owner_of(v) != 0
               and v not in fragd.fragments[0].mirrors)
    fragd.insert_edge(src, dst, 1.0)
    fragd.delete_edge(src, dst)
    assert not fragd.fragments[0].graph.has_vertex(dst)
    fragd.insert_edge(src, dst, 2)
    if store == "csr":
        dead = fragd.fragments[0].graph.store
        assert dead.dirty() and len(dead._ids) > len(dead._index)
    for frag in fragd.fragments:  # overlay, dead slots
        assert_view_reads_as_rows(frag)
    fragd.compact()
    for frag in fragd.fragments:  # compacted: clean columns again
        assert_view_reads_as_rows(frag)


def test_a_kept_cc_run_under_delta_never_builds_rows():
    """CC's parameter store is laid over each fragment's view, but CC
    never reads a ``(slot, weight)`` row: a kept run absorbing a ΔG
    batch leaves the rows unbuilt, so no effect record pays to refresh
    them."""
    session = Session(road_network(8, 8, seed=1), num_workers=3)
    program, query = CCProgram(), CCQuery()
    state = session.run(program, query, keep_state=True).state
    batch = [(0, 63, 1.0), (9, 54, 2.0)]
    session.engine().run_incremental(program, query, state, batch)
    views = [frag.__dict__.get("_slot_view")
             for frag in session.fragmented.fragments]
    assert all(view is not None for view in views)
    assert not any("out" in vars(view) for view in views)
