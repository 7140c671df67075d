"""Unit tests for the update-parameter store (message protocol core)."""

import pickle
from types import SimpleNamespace

import pytest

from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.aggregators import MIN, SET_INTERSECT
from repro.core.assurance import WriteAudit
from repro.core.delta import apply_delta
from repro.core.update_params import UpdateParams
from repro.engineapi.session import Session
from repro.errors import ProgramError
from repro.graph.generators import road_network

INF = float("inf")


def make_store(**kw):
    return UpdateParams(MIN, INF, **kw)


def view_of(border: list, inner: list = ()) -> SimpleNamespace:
    """A stand-in slot view: ``border`` vertices in the first slots,
    then ``inner`` ones."""
    ids = [*border, *inner]
    return SimpleNamespace(
        ids=ids,
        index={v: s for s, v in enumerate(ids)},
        border=[s < len(border) for s in range(len(ids))],
        border_slots=list(range(len(border))),
        ints=all(type(v) is int for v in ids),
    )


def sent(params) -> dict:
    """What :meth:`consume_changes` ships, read back as ``{key: value}``."""
    keys, values = params.consume_changes()
    assert len(keys) == len(values)
    return dict(zip(keys, values))


def test_declared_defaults():
    params = make_store()
    params.declare([1, 2])
    assert params.get(1) == INF
    assert params.declared == {1, 2}
    assert len(params) == 2


def test_declare_with_initial_values():
    params = UpdateParams(SET_INTERSECT, None)
    params.declare([1, 2], initial={1: frozenset({"a"})})
    assert params.get(1) == {"a"}
    assert params.get(2) is None
    assert sent(params) == {}  # declaration is not a change


def test_set_tracks_changes():
    params = make_store()
    params.declare([1])
    assert params.set(1, 5.0) is True
    assert sent(params) == {1: 5.0}
    assert sent(params) == {}  # cleared


def test_set_equal_value_is_not_a_change():
    params = make_store()
    params.declare([1])
    params.set(1, 5.0)
    params.consume_changes()
    assert params.set(1, 5.0) is False
    assert sent(params) == {}


def test_set_undeclared_raises():
    params = make_store()
    with pytest.raises(ProgramError):
        params.set(99, 1.0)


@pytest.mark.parametrize(
    "write",
    [
        lambda p: p.set(99, 1.0),
        lambda p: p.improve(99, 1.0),
        lambda p: p.improve_slots(view_of([1, 99]), [0, 1], [2.0, 1.0]),
        lambda p: p.touch(99),
    ],
    ids=["set", "improve", "improve_slots", "touch"],
)
def test_undeclared_write_or_touch_is_grp402(write):
    params = make_store()
    params.declare([1])
    with pytest.raises(ProgramError, match=r"^\[GRP402\]"):
        write(params)


def test_setitem_getitem():
    params = make_store()
    params.declare([1])
    params[1] = 2.0
    assert params[1] == 2.0


def test_improve_goes_through_aggregator():
    params = make_store()
    params.declare([1])
    params.set(1, 5.0)
    params.consume_changes()
    assert params.improve(1, 7.0) is False  # min keeps 5
    assert params.get(1) == 5.0
    assert params.improve(1, 3.0) is True
    assert sent(params) == {1: 3.0}


def test_improve_slots_publishes_improved_border_slots_once():
    view = view_of([1, 2, 3], inner=[4])
    params = make_store()
    assert params.declare_border(view) == 3
    params.set(2, 1.0)
    params.improve_slots(view, [2, 0, 1, 3], [6.0, 9.0, 2.0, 0.5])
    params.improve_slots(view, [2], [3.0, 9.0, 1.5, 0.5])
    assert sent(params) == {2: 1.0, 3: 1.5, 1: 6.0}  # 4 is not border


def test_a_laid_store_seeds_and_publishes_by_slot():
    """Over a slot view a position is a slot: mail's changes come back
    as ``(slot, value)`` seeds, and a key outside the view (a mirror ΔG
    pruned, met again after a pickle) moves the store off the view
    without losing a value."""
    view = view_of([1, 2, 3], inner=[4])
    params = make_store()
    params.declare_border(view)
    params.apply_columns([([3, 1], [2.0, 5.0])])
    assert params.received(view, held=lambda v: True) == [(2, 2.0), (0, 5.0)]
    params.apply_columns([([3, 9], [1.0, 0.5])])  # 9 lies outside the view
    assert params.received(view, held=lambda v: True) == [(2, 1.0)]
    params.improve_slots(view, [1, 3], [0.0, 4.0, 0.0, 0.1])
    assert sent(params) == {2: 4.0}
    assert params.snapshot() == {1: 5.0, 2: 4.0, 3: 1.0, 9: 0.5}


def test_apply_remote_aggregates():
    params = make_store()
    params.declare([1])
    params.set(1, 5.0)
    params.consume_changes()
    assert params.apply_columns([([1], [8.0])]) == set()  # worse: no change
    assert params.apply_columns([([1], [2.0])]) == {1}
    assert params.get(1) == 2.0


def test_apply_remote_does_not_mark_for_send():
    params = make_store()
    params.declare([1])
    params.apply_columns([([1], [2.0])])
    assert params.apply_columns([([1], [1.0])]) == {1}
    assert sent(params) == {}  # no echo


def test_apply_remote_lazily_declares():
    params = make_store()
    assert params.apply_columns([([42], [1.0])]) == {42}
    assert params.is_declared(42)
    assert params.apply_columns([([43], [INF])]) == set()  # no change ...
    assert params.is_declared(43)  # ... but declared all the same


def test_apply_columns_folds_every_column_through_the_aggregator():
    params = UpdateParams(SET_INTERSECT, None)
    params.declare(["a", "b"], initial={"a": frozenset({1, 2})})
    changed = params.apply_columns([
        (["a", "b"], [frozenset({2, 3}), frozenset({5})]),
        (["a"], [frozenset({2})]),  # resolved to what "a" holds: no write
    ])
    assert changed == {"a", "b"}
    assert params.snapshot() == {"a": {2}, "b": {5}}


def test_local_improvement_after_remote_is_shipped():
    params = make_store()
    params.declare([1])
    params.apply_columns([([1], [5.0])])
    params.improve(1, 3.0)
    assert sent(params) == {1: 3.0}


def test_reset_clears_marks_and_restores_the_default():
    params = make_store()
    params.declare([1, 2])
    params.set(1, 4.0)
    params.set(2, 5.0)
    assert params.reset([1, 99]) == 1  # 99 is not declared: skipped
    assert params.get(1) == INF
    assert sent(params) == {2: 5.0}
    params.improve(1, 3.0)
    assert sent(params) == {1: 3.0}


def test_audit_sees_all_writes():
    class Seen(WriteAudit):
        def check(self, order, vertex, old, new):
            super().check(order, vertex, old, new)
            seen.append((vertex, old, new))

    seen = []
    params = make_store()
    params.audit = Seen(fragment=0)
    params.declare([1, 2])
    params.set(1, 5.0)
    params.apply_columns([([1], [2.0])])
    params.apply_columns([([1], [9.0])])  # resolved away: no write
    params.apply_columns([([1, 2], [1.0, 7.0])])
    params.improve_slots(view_of([1, 2]), [1, 0], [3.0, 6.0])  # 3.0 is not
    params.reset([1])  # resets bypass the audit by design
    assert seen == [
        (1, INF, 5.0), (1, 5.0, 2.0), (1, 2.0, 1.0), (2, INF, 7.0),
        (2, 7.0, 6.0),
    ]
    assert params.take_audit() == 5


def test_columns_are_lists_and_keep_value_types():
    sssp = make_store()
    sssp.declare([3, 1])
    sssp.improve(1, 2.0)
    sssp.improve(3, 1.0)
    keys, values = sssp.consume_changes()
    assert type(keys) is list and type(values) is list
    assert (keys, values) == ([1, 3], [2.0, 1.0])
    # A CC label is an int under a None default: the values are a list
    # of ints, and None keeps meaning "no label yet".
    cc = UpdateParams(MIN, None)
    cc.declare([5, 6])
    cc.improve(6, 2)
    keys, values = cc.consume_changes()
    assert (keys, values) == ([6], [2]) and type(values[0]) is int
    assert cc.apply_columns([([5], [None])]) == set()
    assert cc.get(5) is None
    # Keys of any kind travel as they are.
    named = make_store()
    named.declare(["x", 1 << 70])
    named.improve("x", 1.0)
    named.improve(1 << 70, 2.0)
    assert named.consume_changes() == (["x", 1 << 70], [1.0, 2.0])
    # An int written into a float store comes back an int.
    mixed = make_store()
    mixed.declare([1])
    mixed.improve(1, 3)
    keys, values = mixed.consume_changes()
    assert values == [3] and type(values[0]) is int


def test_declare_border_declares_only_what_the_view_appended():
    session = Session(
        road_network(8, 8, seed=1), num_workers=2, partition="range"
    )
    frag = session.fragmented.fragments[0]
    view = frag.slot_view()
    params = make_store()
    assert params.declare_border(view) == len(frag.border)
    # the view's border slots in slot order
    border = [v for v, flag in zip(view.ids, view.border) if flag]
    assert list(params.snapshot()) == border
    assert params.declare_border(view) == 0
    other = next(v for v in session.graph.vertices() if v not in frag.graph)
    inner = next(iter(frag.owned - frag.inner_border))
    apply_delta(session.fragmented, [(inner, other, 1.0)])
    fresh = frag.border - set(border)  # the new mirror, at least
    assert fresh and params.declare_border(view) == len(fresh)
    assert params.declared == frozenset(frag.border)


def test_snapshot_copies():
    params = make_store()
    params.declare([1])
    params.set(1, 4.0)
    snap = params.snapshot()
    snap[1] = 0.0
    assert params.get(1) == 4.0


def test_repr_mentions_aggregator():
    params = make_store()
    assert "min" in repr(params)


def test_charge_accumulates_and_take_work_clears():
    params = make_store()
    assert params.take_work() == 0
    params.charge(3)
    params.charge(4)
    assert params.take_work() == 7
    assert params.take_work() == 0


def test_pickled_store_carries_no_pending_work():
    params = make_store()
    params.declare([1])
    params.set(1, 4.0)
    params.charge(5)
    clone = pickle.loads(pickle.dumps(params))
    assert clone.take_work() == 0
    assert clone.snapshot() == params.snapshot()
    assert params.take_work() == 5  # pickling reads, it does not take
    clone.charge(2)
    assert clone.take_work() == 2


def test_a_store_pickles_by_key_not_by_layout():
    """A pickle holds ``{key: value}`` and the pending keys, never the
    positions: two stores declared in different orders pickle alike."""
    one, two = make_store(), make_store()
    one.declare([3, 1, 2])
    two.declare([2, 3])
    two.declare([1])
    for params in (one, two):
        params.improve(2, 5.0)
        params.improve(1, 4.0)
        params.apply_columns([([3], [1.0])])
    assert pickle.dumps(one) == pickle.dumps(two)
    clone = pickle.loads(pickle.dumps(one))
    assert clone.snapshot() == one.snapshot()
    assert sent(clone) == sent(one) == {1: 4.0, 2: 5.0}


#: ``len(pickle.dumps(store))`` of each kept store of the runs below,
#: read from the vertex-keyed store this one replaced (dict values plus
#: a declared set): a kept store ships to process workers on every ΔG
#: batch, so the dense layout must not travel with it.
VERTEX_KEYED_BYTES = {
    "sssp": [3990, 4275, 4331, 4046],
    "cc": [2120, 2258, 2286, 2148],
}


@pytest.mark.parametrize("program,query", [
    (SSSPProgram(), SSSPQuery(source=0)), (CCProgram(), CCQuery()),
], ids=["sssp", "cc"])
def test_a_kept_store_pickles_no_larger_than_the_vertex_keyed_one(
    program, query
):
    session = Session(road_network(20, 20, seed=1), num_workers=4)
    state = session.run(program, query, keep_state=True).state
    sizes = [len(pickle.dumps(params)) for params in state.params]
    limits = VERTEX_KEYED_BYTES[program.name]
    assert all(size <= limit for size, limit in zip(sizes, limits)), sizes
