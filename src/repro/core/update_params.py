"""Per-fragment update-parameter store with change tracking.

Update parameters are "variables associated with border nodes" (Section
2.2). A :class:`UpdateParams` instance lives on one worker, holds the
current value of each declared variable, records which variables changed
since the last message was emitted, and applies *remote* candidate values
through the declared aggregate function.

Messages are "automatically generated from update parameters": the engine
simply calls :meth:`consume_changes` after PEval/IncEval and ships the
result — user algorithms never construct messages, matching the paper's
claim that declarations are the only addition to sequential code. Work
accounting and the monotonicity audit ride the same store: programs
:meth:`charge`, writes are tallied by :attr:`audit` when the engine
armed one, and the engine books :meth:`take_work` / :meth:`take_audit`
from each op reply.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.core.aggregators import Aggregator
from repro.errors import ProgramError

VertexId = Hashable


def _undeclared(action: str, v: VertexId) -> ProgramError:
    return ProgramError(
        f"[GRP402] {action} undeclared update parameter {v!r}: "
        "declare_params must declare every vertex PEval/IncEval writes — "
        "update parameters live on fragment.border"
    )


class UpdateParams:
    """Border-variable store for one fragment.

    Args:
        aggregator: conflict-resolution function + its partial order.
        default: initial value of every declared variable (e.g. ∞).
    """

    #: Work units charged since the last :meth:`take_work`. Belongs to
    #: the running superstep, not the store: pickles do not carry it.
    _work = 0
    #: The running engine's :class:`~repro.core.assurance.WriteAudit`
    #: (None = unchecked). Set by the bind/resume/set_state ops from the
    #: engine's own ``check_monotonic``; belongs to the run, not the
    #: store: pickles do not carry it.
    audit = None

    def __init__(self, aggregator: Aggregator, default: object) -> None:
        self.aggregator = aggregator
        self.default = default
        self._values: dict[VertexId, object] = {}
        self._declared: set[VertexId] = set()
        self._changed: set[VertexId] = set()

    # ------------------------------------------------------------------
    # Declaration
    # ------------------------------------------------------------------
    def declare(
        self,
        vertices: Iterable[VertexId],
        initial: Mapping[VertexId, object] | None = None,
    ) -> None:
        """Declare update parameters for ``vertices``.

        Initial values come from ``initial`` where present, otherwise the
        default. Declaration does not mark variables as changed.
        """
        for v in vertices:
            self._declared.add(v)
            if initial is not None and v in initial:
                self._values[v] = initial[v]
            else:
                self._values.setdefault(v, self.default)

    @property
    def declared(self) -> frozenset[VertexId]:
        """The set of declared parameter vertices."""
        return frozenset(self._declared)

    def is_declared(self, v: VertexId) -> bool:
        """Whether ``v`` carries an update parameter."""
        return v in self._declared

    # ------------------------------------------------------------------
    # Local access (used inside PEval / IncEval)
    # ------------------------------------------------------------------
    def get(self, v: VertexId) -> object:
        """Current value (default if never written)."""
        return self._values.get(v, self.default)

    def __getitem__(self, v: VertexId) -> object:
        return self.get(v)

    def set(self, v: VertexId, value: object) -> bool:
        """Write a value from local computation; track the change.

        Returns True if the stored value changed. Writes to undeclared
        vertices are a program error — sequential code should only touch
        variables it declared.
        """
        if v not in self._declared:
            raise _undeclared("write to", v)
        old = self._values.get(v, self.default)
        if old == value:
            return False
        if self.audit is not None:
            self.audit.check(self.aggregator.order, v, old, value)
        self._values[v] = value
        self._changed.add(v)
        return True

    def __setitem__(self, v: VertexId, value: object) -> None:
        self.set(v, value)

    def touch(self, v: VertexId) -> None:
        """Mark ``v`` for (re-)sending without changing its value.

        Needed when a *new consumer* appears (e.g. an edge insertion
        creates a fresh mirror of an existing border vertex): the value
        did not change, but the newcomer has never seen it.
        """
        if v not in self._declared:
            raise _undeclared("touch of", v)
        self._changed.add(v)

    def improve(self, v: VertexId, value: object) -> bool:
        """Write ``value`` through the aggregate function.

        The stored value becomes ``aggregate(current, value)`` — i.e. the
        write only "improves" the variable along the declared partial
        order (min keeps the smaller, union grows the set). Returns True
        and marks the variable for sending if it changed. This is the
        idiom PEval/IncEval use to export freshly computed border values.
        """
        old = self._values.get(v, self.default)
        resolved = self.aggregator.resolve(old, value)
        if resolved == old:
            return False
        if v not in self._declared:
            raise _undeclared("write to", v)
        if self.audit is not None:
            self.audit.check(self.aggregator.order, v, old, resolved)
        self._values[v] = resolved
        self._changed.add(v)
        return True

    def reset(self, vertices: Iterable[VertexId]) -> int:
        """Reset declared variables back to the default (the order's ⊤).

        Non-monotone repair cannot trust values that depended on a
        deleted edge, so the engine resets the invalidated region before
        re-deriving it. Resets bypass the monotonicity audit (they
        move *against* the partial order by design) and clear any
        pending change mark — the repair republishes whatever it
        re-derives. Returns how many variables actually changed.
        """
        count = 0
        for v in vertices:
            if v not in self._declared and v not in self._values:
                continue
            old = self._values.get(v, self.default)
            self._values[v] = self.default
            self._changed.discard(v)
            if old != self.default:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Message protocol (used by the engine)
    # ------------------------------------------------------------------
    def consume_changes(self) -> dict[VertexId, object]:
        """Return and clear {vertex: value} for variables changed since
        the last call — exactly the paper's automatic message content."""
        out = {v: self._values[v] for v in self._changed}
        self._changed.clear()
        return out

    def apply_remote(self, v: VertexId, value: object) -> bool:
        """Aggregate an incoming candidate value into the local store.

        Returns True if the local value changed (the vertex then belongs
        to IncEval's update set ``M_i``). Remote applications do *not*
        mark the variable as changed-for-sending; only subsequent local
        improvements by IncEval are shipped back, which keeps the
        fixed-point from echoing messages forever.
        """
        if v not in self._declared:
            # A remote fragment may know border vertices this fragment
            # never declared (e.g. directed cross edges); declare lazily.
            self._declared.add(v)
        old = self._values.get(v, self.default)
        resolved = self.aggregator.resolve(old, value)
        if resolved == old:
            return False
        if self.audit is not None:
            self.audit.check(self.aggregator.order, v, old, resolved)
        self._values[v] = resolved
        return True

    def charge(self, units: int) -> None:
        """Report ``units`` of sequential work done by the current call
        (settled vertices, relabelled vertices, pushes — the program's
        own measure of |M_i| + |ΔO_i|)."""
        self._work += units

    def take_work(self) -> int:
        """Return and clear the work charged since the last call — what
        the engine books to the running superstep."""
        work, self._work = self._work, 0
        return work

    def take_audit(self) -> int | None:
        """Return and clear the audit's write count since the last
        call; None when the run is unchecked."""
        return None if self.audit is None else self.audit.take()

    def snapshot(self) -> dict[VertexId, object]:
        """Copy of all current values (for tests and tracing)."""
        return dict(self._values)

    # ------------------------------------------------------------------
    # Pickling (checkpoints): pending work and the audit stay with the
    # run that owns them.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_work", None)
        state.pop("audit", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __len__(self) -> int:
        return len(self._declared)

    def __repr__(self) -> str:
        return (
            f"<UpdateParams n={len(self._declared)} "
            f"agg={self.aggregator.name} pending={len(self._changed)}>"
        )
