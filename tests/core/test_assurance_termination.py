"""Unit tests for the monotonicity checker and fixpoint guard."""

import pickle

import pytest

from repro.core.aggregators import MIN
from repro.core.assurance import MonotonicityChecker, WriteAudit
from repro.core.update_params import UpdateParams
from repro.core import termination
from repro.core.termination import FixpointGuard
from repro.errors import EngineRuntimeError, MonotonicityError


def _audited(fragment=0):
    """A MIN store with a declared vertex, audited as the engine arms it
    (``ops._install``), and the engine-side checker its tallies feed."""
    params = UpdateParams(MIN, None)
    params.declare(["v", 1])
    params.audit = WriteAudit(fragment)
    return params, MonotonicityChecker()


def test_checker_accepts_monotone_writes():
    params, checker = _audited()
    params.set(1, 10)
    params.apply_columns([([1], [5])])
    params.set(1, 5)  # no change: not a write
    checker.absorb(params.take_audit())
    assert checker.writes_seen == 2
    assert params.take_audit() == 0  # taking clears


def test_checker_strict_raises_on_violation():
    params, checker = _audited(fragment=3)
    params.set("v", 1)
    with pytest.raises(MonotonicityError, match="fragment 3: x\\['v'\\]"):
        params.set("v", 2)
    assert params.get("v") == 1  # the violating write never landed
    checker.absorb(params.take_audit())
    assert checker.writes_seen == 2


def test_checker_none_old_value_legal():
    params, checker = _audited()
    params.set("v", 100)  # old value None
    checker.absorb(params.take_audit())
    assert checker.writes_seen == 1


def test_unarmed_store_audits_nothing_and_pickles_drop_the_audit():
    params, _ = _audited()
    params.set("v", 7)
    clone = pickle.loads(pickle.dumps(params))
    assert clone.audit is None and clone.take_audit() is None
    assert "audit" not in clone.__dict__
    assert params.take_audit() == 1  # pickling reads, never takes


def test_guard_counts_rounds():
    guard = FixpointGuard()
    guard.record_round()
    guard.record_round()
    assert guard.rounds == 2
    assert guard.rewind(1) == 1 and guard.rounds == 1
    assert guard.rewind(5) == 0 and guard.rounds == 1


def test_guard_caps_supersteps(monkeypatch):
    monkeypatch.setattr(termination, "MAX_SUPERSTEPS", 3)
    guard = FixpointGuard()
    for _ in range(3):
        guard.record_round()
    with pytest.raises(EngineRuntimeError, match="monotonic"):
        guard.record_round()
