"""Unit tests for partial orders and aggregate functions."""

import pytest

from repro.core.aggregators import (
    BOOL_AND,
    BOOL_OR,
    LAST_WRITE,
    MAX,
    MIN,
    SET_INTERSECT,
    SET_UNION,
    SUM_ONCE,
)
from repro.core.partial_order import (
    DECREASING,
    GROWING_SET,
    INCREASING,
    SHRINKING_SET,
    UNORDERED,
)
from repro.core.pie import ParamSpec
from repro.errors import ProgramError

INF = float("inf")


# -------------------------------------------------------- partial orders
def test_decreasing_allows_drop_and_equal():
    assert DECREASING.advances(5, 3)
    assert DECREASING.advances(5, 5)
    assert not DECREASING.advances(5, 7)


def test_increasing_mirror():
    assert INCREASING.advances(1, 2)
    assert not INCREASING.advances(2, 1)


def test_shrinking_set():
    assert SHRINKING_SET.advances({1, 2, 3}, {1, 2})
    assert SHRINKING_SET.advances({1}, set())
    assert not SHRINKING_SET.advances({1}, {1, 2})


def test_growing_set():
    assert GROWING_SET.advances({1}, {1, 2})
    assert not GROWING_SET.advances({1, 2}, {1})


def test_unordered_allows_anything():
    assert UNORDERED.advances(1, 99)
    assert UNORDERED.advances("a", {"weird"})


def test_none_is_top_of_every_order():
    for order in (DECREASING, INCREASING, SHRINKING_SET, GROWING_SET):
        assert order.advances(None, 42 if "set" not in order.name else {42})


# ----------------------------------------------------------- aggregators
def test_min_keeps_smaller():
    assert MIN.resolve(5, 3) == 3
    assert MIN.resolve(3, 5) == 3
    assert MIN.order is DECREASING


def test_max_keeps_larger():
    assert MAX.resolve(5, 9) == 9
    assert MAX.resolve(9, 5) == 9


def test_bool_or_and():
    assert BOOL_OR.resolve(False, True) is True
    assert BOOL_OR.resolve(False, False) is False
    assert BOOL_AND.resolve(True, False) is False


def test_set_union_and_intersect():
    assert SET_UNION.resolve(frozenset({1}), frozenset({2})) == {1, 2}
    assert SET_INTERSECT.resolve(
        frozenset({1, 2}), frozenset({2, 3})
    ) == {2}


def test_none_current_takes_incoming():
    assert MIN.resolve(None, 7) == 7
    assert SET_INTERSECT.resolve(None, frozenset({1})) == {1}


def test_sum_accumulates():
    assert SUM_ONCE.resolve(2, 3) == 5


def test_last_write_wins():
    assert LAST_WRITE.resolve("old", "new") == "new"


def test_min_repeated_application_respects_order():
    value = 10
    for incoming in (7, 9, 3, 8):
        new = MIN.resolve(value, incoming)
        assert MIN.order.advances(value, new)
        value = new
    assert value == 3


# ------------------------------------------------- degenerate defaults
@pytest.mark.parametrize(
    "aggregator,default",
    [(MAX, INF), (MIN, -INF), (BOOL_AND, False), (BOOL_OR, True),
     (SET_INTERSECT, frozenset())],
)
def test_param_spec_refuses_a_default_nothing_advances_from(
    aggregator, default
):
    with pytest.raises(ProgramError, match=r"^\[GRP401\]"):
        ParamSpec(aggregator=aggregator, default=default)


@pytest.mark.parametrize(
    "aggregator,default",
    [(MIN, INF), (MAX, -INF), (MAX, None), (SUM_ONCE, 0.0),
     (BOOL_AND, 0), (BOOL_OR, 1.0), (SET_UNION, frozenset())],
)
def test_param_spec_accepts_improvable_defaults(aggregator, default):
    # Matched type-exactly: 0 under BOOL_AND is not False.
    assert ParamSpec(aggregator=aggregator, default=default).default == default
