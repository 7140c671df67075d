"""Unit tests for the monotonicity checker and fixpoint guard."""

import pytest

from repro.core.assurance import MonotonicityChecker
from repro.core.partial_order import DECREASING
from repro.core.termination import FixpointGuard
from repro.errors import EngineRuntimeError, MonotonicityError


def test_checker_accepts_monotone_writes():
    checker = MonotonicityChecker(order=DECREASING)
    observer = checker.observer(0)
    observer(1, 10, 5)
    observer(1, 5, 5)
    assert checker.ok
    assert checker.writes_seen == 2


def test_checker_strict_raises_on_violation():
    checker = MonotonicityChecker(order=DECREASING, strict=True)
    observer = checker.observer(3)
    with pytest.raises(MonotonicityError, match="fragment 3"):
        observer("v", 1, 2)
    assert not checker.ok
    assert checker.violations[0].vertex == "v"


def test_checker_lenient_records_only():
    checker = MonotonicityChecker(order=DECREASING, strict=False)
    observer = checker.observer(0)
    observer("v", 1, 2)
    observer("v", 2, 9)
    assert len(checker.violations) == 2
    assert "1 -> 2" in str(checker.violations[0])


def test_checker_none_old_value_legal():
    checker = MonotonicityChecker(order=DECREASING)
    checker.observer(0)("v", None, 100)
    assert checker.ok


def test_guard_counts_rounds():
    guard = FixpointGuard(max_supersteps=10)
    guard.record_round(5)
    guard.record_round(0)
    assert guard.rounds == 2
    assert guard.change_history == [5, 0]
    assert guard.reached_fixpoint


def test_guard_not_fixpoint_while_changing():
    guard = FixpointGuard()
    guard.record_round(3)
    assert not guard.reached_fixpoint
    assert not FixpointGuard().reached_fixpoint  # no rounds yet


def test_guard_caps_supersteps():
    guard = FixpointGuard(max_supersteps=3)
    for _ in range(3):
        guard.record_round(1)
    with pytest.raises(EngineRuntimeError, match="monotonic"):
        guard.record_round(1)
