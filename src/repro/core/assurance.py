"""Runtime verification of the Assurance Theorem's precondition.

The theorem: GRAPE terminates with correct ``Q(G)`` if PEval/IncEval are
correct sequential algorithms, Assemble combines correctly, and updates
to parameters are *monotonic* under a partial order. The engine cannot
prove correctness of arbitrary plugged-in code, but it can watch every
parameter write and check it advances along the aggregator's declared
order — catching non-monotonic programs (for which termination is not
guaranteed) the moment they misbehave.
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
class MonotonicityChecker:
    """Observes parameter writes; records or raises on violations.

    Attach per fragment via :meth:`observer`; the returned callable plugs
    into :class:`~repro.core.update_params.UpdateParams` ``on_write``.
    """

    order: PartialOrder
    strict: bool = True
    violations: list[Violation] = field(default_factory=list)
    writes_seen: int = 0

    def observer(self, fragment_id: int):
        """Build the on_write callback for one fragment."""
        def on_write(vertex: VertexId, old: object, new: object) -> None:
            self.writes_seen += 1
            if not self.order.advances(old, new):
                violation = Violation(
                    fragment_id, vertex, old, new, self.order.name
                )
                self.violations.append(violation)
                if self.strict:
                    raise MonotonicityError(str(violation))

        return on_write

    @property
    def ok(self) -> bool:
        """True while no violation has been observed."""
        return not self.violations
