"""Partial orders over update-parameter domains.

The Assurance Theorem requires PEval and IncEval to move each update
parameter *one way* along a partial order on its domain — e.g. SSSP
distances only decrease, CC component ids only decrease, simulation
match-sets only shrink. A :class:`PartialOrder` captures that direction;
the assurance checker (:mod:`repro.core.assurance`) tests every write
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class PartialOrder:
    """A named partial order with ``advances(old, new)``.

    ``advances`` returns True when ``new`` is a legal successor of
    ``old`` — equal values are always legal (no-op writes are allowed).
    ``final`` lists the values nothing advances from; they are matched
    type-exactly (``0`` is not ``False``), and a parameter default among
    them can never be improved (see :class:`~repro.core.pie.ParamSpec`).
    """

    name: str
    _advances: Callable[[object, object], bool]
    final: tuple = ()

    def advances(self, old: object, new: object) -> bool:
        """True when ``new`` legally follows ``old`` in this order."""
        if old == new or old is None:
            return True  # None is the top element: any first value is legal
        return self._advances(old, new)

    def __repr__(self) -> str:
        return f"<PartialOrder {self.name}>"


def _lt(old: object, new: object) -> bool:
    return new < old  # type: ignore[operator]


def _gt(old: object, new: object) -> bool:
    return new > old  # type: ignore[operator]


def _subset(old: object, new: object) -> bool:
    return set(new) <= set(old)  # type: ignore[arg-type]


def _superset(old: object, new: object) -> bool:
    return set(new) >= set(old)  # type: ignore[arg-type]


#: Values only decrease (SSSP distances, CC min-labels).
DECREASING = PartialOrder("decreasing", _lt, (float("-inf"), False))
#: Values only increase (longest paths, visited flags 0->1).
INCREASING = PartialOrder("increasing", _gt, (float("inf"), True))
#: Sets only shrink (graph-simulation candidate sets).
SHRINKING_SET = PartialOrder("shrinking-set", _subset, (frozenset(),))
#: Sets only grow (keyword reachability, collected matches).
GROWING_SET = PartialOrder("growing-set", _superset)
#: No constraint — any change is legal (non-monotonic programs; the
#: Assurance Theorem then gives no termination guarantee).
UNORDERED = PartialOrder("unordered", lambda old, new: True)
