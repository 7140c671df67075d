"""Unit tests for the update-parameter store (message protocol core)."""

import pickle

import pytest

from repro.core.aggregators import MIN, SET_INTERSECT
from repro.core.assurance import WriteAudit
from repro.core.update_params import UpdateParams
from repro.errors import ProgramError

INF = float("inf")


def make_store(**kw):
    return UpdateParams(MIN, INF, **kw)


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
    assert params.consume_changes() == {}  # declaration is not a change


def test_set_tracks_changes():
    params = make_store()
    params.declare([1])
    assert params.set(1, 5.0) is True
    assert params.consume_changes() == {1: 5.0}
    assert params.consume_changes() == {}  # cleared


def test_set_equal_value_is_not_a_change():
    params = make_store()
    params.declare([1])
    params.set(1, 5.0)
    params.consume_changes()
    assert params.set(1, 5.0) is False
    assert params.consume_changes() == {}


def test_set_undeclared_raises():
    params = make_store()
    with pytest.raises(ProgramError):
        params.set(99, 1.0)


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
    assert params.consume_changes() == {1: 3.0}


def test_apply_remote_aggregates():
    params = make_store()
    params.declare([1])
    params.set(1, 5.0)
    params.consume_changes()
    assert params.apply_remote(1, 8.0) is False  # worse: no change
    assert params.apply_remote(1, 2.0) is True
    assert params.get(1) == 2.0


def test_apply_remote_does_not_mark_for_send():
    params = make_store()
    params.declare([1])
    params.apply_remote(1, 2.0)
    assert params.consume_changes() == {}  # no echo


def test_apply_remote_lazily_declares():
    params = make_store()
    assert params.apply_remote(42, 1.0) is True
    assert params.is_declared(42)


def test_local_improvement_after_remote_is_shipped():
    params = make_store()
    params.declare([1])
    params.apply_remote(1, 5.0)
    params.improve(1, 3.0)
    assert params.consume_changes() == {1: 3.0}


def test_audit_sees_all_writes():
    class Seen(WriteAudit):
        def check(self, order, vertex, old, new):
            super().check(order, vertex, old, new)
            seen.append((vertex, old, new))

    seen = []
    params = make_store()
    params.audit = Seen(fragment=0)
    params.declare([1])
    params.set(1, 5.0)
    params.apply_remote(1, 2.0)
    params.apply_remote(1, 9.0)  # resolved away: no write
    params.reset([1])  # resets bypass the audit by design
    assert seen == [(1, INF, 5.0), (1, 5.0, 2.0)]
    assert params.take_audit() == 2


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
