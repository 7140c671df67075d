"""Aggregate functions resolving conflicting update-parameter values.

When several workers propose values for the same border variable, each
receiving fragment resolves the conflict with the aggregate function
declared in PEval — ``min`` for SSSP in Example 1. Each built-in
aggregator carries the partial order its repeated application
respects, so the engine can verify monotonicity without extra user
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.core.partial_order import (
    DECREASING,
    GROWING_SET,
    INCREASING,
    PartialOrder,
    SHRINKING_SET,
    UNORDERED,
)


@dataclass(frozen=True)
class Aggregator:
    """``combine(current, incoming) -> resolved`` plus its partial order."""

    name: str
    combine: Callable[[object, object], object]
    order: PartialOrder

    def resolve(self, current: object, incoming: object) -> object:
        """Resolve ``incoming`` against ``current``.

        ``None`` means "no value yet" (the top of the order): the first
        concrete value always wins, so programs may declare ``None`` as
        the default when no natural identity exists (e.g. candidate sets
        before labels are known).
        """
        if current is None:
            return incoming
        return self.combine(current, incoming)

    def __repr__(self) -> str:
        return f"<Aggregator {self.name}>"


def _min(cur: object, new: object) -> object:
    return new if new < cur else cur  # type: ignore[operator]


def _max(cur: object, new: object) -> object:
    return new if new > cur else cur  # type: ignore[operator]


def _or(cur: object, new: object) -> object:
    return bool(cur) or bool(new)


def _and(cur: object, new: object) -> object:
    return bool(cur) and bool(new)


def _union(cur: object, new: object) -> object:
    return frozenset(cur) | frozenset(new)  # type: ignore[arg-type]


def _intersect(cur: object, new: object) -> object:
    return frozenset(cur) & frozenset(new)  # type: ignore[arg-type]


def _sum_once(cur: object, new: object) -> object:
    # Non-monotonic accumulate: used by programs that tolerate re-adding
    # (e.g. one-shot contribution exchanges in CF/PageRank supersteps).
    return cur + new  # type: ignore[operator]


def _last(cur: object, new: object) -> object:
    return new


#: min over comparable values — SSSP's aggregator (Example 1).
MIN = Aggregator("min", _min, DECREASING)
#: max over comparable values.
MAX = Aggregator("max", _max, INCREASING)
#: boolean or — reachability-style flags.
BOOL_OR = Aggregator("or", _or, INCREASING)
#: boolean and — simulation-style pruning flags.
BOOL_AND = Aggregator("and", _and, DECREASING)
#: set union — keyword search / match collection.
SET_UNION = Aggregator("set-union", _union, GROWING_SET)
#: set intersection — candidate-set pruning.
SET_INTERSECT = Aggregator("set-intersect", _intersect, SHRINKING_SET)
#: numeric accumulation (unordered; no termination guarantee by itself).
SUM_ONCE = Aggregator("sum", _sum_once, UNORDERED)
#: last writer wins (unordered).
LAST_WRITE = Aggregator("last-write", _last, UNORDERED)


def min_union(partials: Sequence[Mapping]) -> dict:
    """Assemble for ``{vertex: value}`` partials under :data:`MIN`: the
    union of the partial answers, keeping the least value per vertex."""
    result: dict = {}
    for partial in partials:
        for v, value in partial.items():
            if v not in result or value < result[v]:
                result[v] = value
    return result
