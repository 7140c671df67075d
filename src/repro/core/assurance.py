"""Runtime verification of the Assurance Theorem's precondition.

The theorem: GRAPE terminates with correct ``Q(G)`` if PEval/IncEval are
correct sequential algorithms, Assemble combines correctly, and updates
to parameters are *monotonic* under a partial order. The engine cannot
prove correctness of arbitrary plugged-in code, but it can watch every
parameter write and check it advances along the aggregator's declared
order — catching non-monotonic programs (for which termination is not
guaranteed) the moment they misbehave. The watching happens where the
write happens (a :class:`WriteAudit` inside the worker's parameter
store); what it saw rides the op reply to the engine's
:class:`MonotonicityChecker`, so a run is checked on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Hashable

from repro.core.partial_order import PartialOrder
from repro.errors import MonotonicityError

VertexId = Hashable


@dataclass(frozen=True)
class Violation:
    """One write that moved a parameter against its partial order."""

    fragment: int
    vertex: VertexId
    old: object
    new: object
    #: Name of the partial order the write violated (e.g. ``decreasing``).
    order: str = ""

    #: Rule code shared with the static verifier (``grape lint``):
    #: GRP100 is the runtime face of the GRP1xx aggregator-consistency
    #: family, so runtime and ``grape lint`` findings read as one system.
    code: ClassVar[str] = "GRP100"

    def __str__(self) -> str:
        order = f" declared {self.order!r}" if self.order else ""
        return (
            f"[{self.code}] fragment {self.fragment}: x[{self.vertex!r}] "
            f"moved {self.old!r} -> {self.new!r} against the{order} partial "
            "order; hint: write border variables through params.improve() "
            "so every value advances along the aggregator's order — "
            f"`grape lint` checks this statically (rules {self.code[:4]}xx)"
        )


@dataclass
class WriteAudit:
    """One worker's half of the check: plain data inside its
    :class:`~repro.core.update_params.UpdateParams`, armed by the engine
    per run. Counts every accepted write, records (strict: raises on)
    each one that moves against ``order``; :meth:`take` hands the tally
    to the op reply, exactly as ``take_work`` hands over work units.
    """

    fragment: int
    strict: bool = True
    writes: int = 0
    violations: list[Violation] = field(default_factory=list)

    def check(
        self, order: PartialOrder, vertex: VertexId, old: object, new: object
    ) -> None:
        self.writes += 1
        if not order.advances(old, new):
            violation = Violation(self.fragment, vertex, old, new, order.name)
            self.violations.append(violation)
            if self.strict:
                raise MonotonicityError(str(violation))

    def take(self) -> tuple[int, list[Violation]]:
        """Return and clear ``(writes, violations)`` since the last call."""
        tally = (self.writes, self.violations)
        self.writes, self.violations = 0, []
        return tally


@dataclass
class MonotonicityChecker:
    """The engine's half: one per checked run, summing the tallies the
    workers' :class:`WriteAudit` s send home on every op reply."""

    order: PartialOrder
    strict: bool = True
    violations: list[Violation] = field(default_factory=list)
    writes_seen: int = 0

    def absorb(self, tally: tuple[int, list[Violation]]) -> None:
        """Book one op reply's :meth:`WriteAudit.take`."""
        self.writes_seen += tally[0]
        self.violations.extend(tally[1])

    @property
    def ok(self) -> bool:
        """True while no violation has been observed."""
        return not self.violations
