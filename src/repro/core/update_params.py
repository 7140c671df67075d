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

Values sit in a list over *positions*, beside a ``bytearray`` flag per
position for "declared" and one for "pending send". A store declared
through :meth:`declare_border` is laid over the fragment's
:class:`~repro.graph.fragment.SlotView` — it shares the view's ids and
index, so a position is a slot and SSSP/BFS publish and seed by slot;
any other store numbers its keys as they are declared. A message is a
``(keys, values)`` pair of lists. A store pickles by key, never its
layout.
"""

from __future__ import annotations

from itertools import compress
from typing import Hashable, Iterable, Mapping

from repro.core.aggregators import MAX, MIN, Aggregator
from repro.errors import ProgramError

VertexId = Hashable


def _undeclared(action: str, v: VertexId) -> ProgramError:
    return ProgramError(
        f"[GRP402] {action} undeclared update parameter {v!r}: "
        "declare_params must declare every vertex PEval/IncEval writes — "
        "update parameters live on fragment.border"
    )


def _sorted(keys: list) -> list:
    try:
        return sorted(keys)
    except TypeError:  # keys of types that do not compare
        return sorted(keys, key=repr)


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
        #: +1 under MIN, -1 under MAX (compared inline), 0: ``resolve``
        self._sign = 1 if aggregator == MIN else -1 if aggregator == MAX else 0
        self._keys: list = []  # position -> key
        self._pos: dict = {}  # key -> position
        self._values: list = []
        self._declared = bytearray()
        self._marked = bytearray()
        self._changed: list[int] = []  # the marked positions, in mark order
        self._moved: list[int] = []  # the positions mail last changed
        self._view = None  # the slot view the store is laid over
        self._grown = 0  # ... and how many of its border slots it saw
        self._by_slot = False  # declared from a view (it pickles this)

    # ------------------------------------------------------------------
    # Layout and declaration
    # ------------------------------------------------------------------
    def _fit(self) -> None:
        """Cover every key (a laid store's view may have grown)."""
        n = len(self._keys) - len(self._values)
        if n:
            self._values += [self.default] * n
            self._declared += bytes(n)
            self._marked += bytes(n)

    def _lay(self, view) -> bool:
        """Lay the store over ``view``, position = slot, unless it holds
        a key outside the view (then it stays as it is: False). A store
        new to the view — fresh, or loaded from a pickle — is re-laid."""
        if self._view is view:
            self._fit()
            return True
        keys, values = self._keys, self.snapshot()
        pending = [keys[p] for p in self._changed]
        moved, by_slot = [keys[p] for p in self._moved], self._by_slot
        index = view.index
        if not all(map(index.__contains__, values)):
            return False
        self.__init__(self.aggregator, self.default)
        n = len(view.ids)
        self._values, self._declared = [self.default] * n, bytearray(n)
        self._marked = bytearray(n)
        for k, x in values.items():
            self._values[index[k]] = x
            self._declared[index[k]] = 1
        self._keys, self._pos, self._view = view.ids, index, view
        self._by_slot, self._moved = by_slot, [index[k] for k in moved]
        for k in pending:
            self._mark(index[k])
        return True

    def declare(
        self,
        vertices: Iterable[VertexId],
        initial: Mapping[VertexId, object] | None = None,
    ) -> None:
        """Declare update parameters for ``vertices``.

        Initial values come from ``initial`` where present, otherwise the
        default. Declaration does not mark variables as changed.
        """
        keys = list(vertices)
        if not all(map(self._pos.__contains__, keys)):
            fresh = [v for v in dict.fromkeys(keys) if v not in self._pos]
            if self._view is not None:  # keys outside its view
                self._keys, self._pos = list(self._keys), dict(self._pos)
                self._view = None
            n = len(self._keys)
            self._pos.update(zip(fresh, range(n, n + len(fresh))))
            self._keys += fresh
            self._fit()
        elif self._view is not None:
            self._fit()
        pos, declared = self._pos, self._declared
        for v in keys:
            declared[pos[v]] = 1
            if initial is not None and v in initial:
                self._values[pos[v]] = initial[v]

    def declare_border(self, view) -> int:
        """Declare the border vertices of a fragment's slot view this
        store lacks, laying it over the view: all of them the first time
        the store meets ``view``, then the border slots the view
        appended since (ΔG's fresh border). Returns how many."""
        start = self._grown if self._view is view else 0
        laid, self._by_slot = self._lay(view), True
        slots, border, ids = view.border_slots, view.border, view.ids
        self._grown = len(slots)
        if not laid:  # it holds a key outside the view: by vertex
            fresh = [
                ids[s] for s in slots[start:]
                if border[s] and not self.is_declared(ids[s])
            ]
            self.declare(fresh)
            return len(fresh)
        if not start and not any(self._declared):
            self._declared = bytearray(border)  # a fresh store
            return self._declared.count(1)
        declared = self._declared
        fresh = [s for s in slots[start:] if border[s] and not declared[s]]
        for s in fresh:
            declared[s] = 1
        return len(fresh)

    def declare_fresh(self, fragment) -> int:
        """Declare the border vertices ΔG gave ``fragment`` that this
        store lacks — by :meth:`declare_border` for a store declared
        from the fragment's slot view. Returns how many."""
        if self._by_slot:
            return self.declare_border(fragment.slot_view())
        fresh = fragment.border.difference(self._pos)
        self.declare(fresh)
        return len(fresh)

    def _find(self, v: VertexId) -> int | None:
        """``v``'s position, if ``v`` is declared."""
        p = self._pos.get(v)
        if p is not None and p < len(self._declared) and self._declared[p]:
            return p
        return None

    @property
    def declared(self) -> frozenset[VertexId]:
        """The set of declared parameter vertices."""
        return frozenset(compress(self._keys, self._declared))

    def is_declared(self, v: VertexId) -> bool:
        """Whether ``v`` carries an update parameter."""
        return self._find(v) is not None

    # ------------------------------------------------------------------
    # Local access (used inside PEval / IncEval)
    # ------------------------------------------------------------------
    def get(self, v: VertexId) -> object:
        """Current value (default if never written)."""
        p = self._pos.get(v)
        if p is None or p >= len(self._values):
            return self.default
        return self._values[p]

    def __getitem__(self, v: VertexId) -> object:
        return self.get(v)

    def _mark(self, p: int) -> None:
        if not self._marked[p]:
            self._marked[p] = 1
            self._changed.append(p)

    def set(self, v: VertexId, value: object) -> bool:
        """Write a value from local computation; track the change.

        Returns True if the stored value changed. Writes to undeclared
        vertices are a program error — sequential code should only touch
        variables it declared.
        """
        p = self._find(v)
        if p is None:
            raise _undeclared("write to", v)
        old = self._values[p]
        if old == value:
            return False
        if self.audit is not None:
            self.audit.check(self.aggregator.order, v, old, value)
        self._values[p] = value
        self._mark(p)
        return True

    def __setitem__(self, v: VertexId, value: object) -> None:
        self.set(v, value)

    def touch(self, v: VertexId) -> None:
        """Mark ``v`` for (re-)sending without changing its value.

        Needed when a *new consumer* appears (e.g. an edge insertion
        creates a fresh mirror of an existing border vertex): the value
        did not change, but the newcomer has never seen it.
        """
        p, declared = self._pos.get(v), self._declared
        if p is None or p >= len(declared) or not declared[p]:
            raise _undeclared("touch of", v)
        if not self._marked[p]:
            self._marked[p] = 1
            self._changed.append(p)

    def improve(self, v: VertexId, value: object) -> bool:
        """Write ``value`` through the aggregate function.

        The stored value becomes ``aggregate(current, value)`` — i.e. the
        write only "improves" the variable along the declared partial
        order (min keeps the smaller, union grows the set). Returns True
        and marks the variable for sending if it changed. This is the
        idiom PEval/IncEval use to export freshly computed border values.
        """
        p, declared = self._pos.get(v), self._declared
        if p is not None and (p >= len(declared) or not declared[p]):
            p = None
        old = self.default if p is None else self._values[p]
        resolved = self.aggregator.resolve(old, value)
        if resolved == old:
            return False
        if p is None:
            raise _undeclared("write to", v)
        if self.audit is not None:
            self.audit.check(self.aggregator.order, v, old, resolved)
        self._values[p] = resolved
        if not self._marked[p]:
            self._marked[p] = 1
            self._changed.append(p)
        return True

    def improve_slots(self, view, slots: Iterable[int], dist: list) -> None:
        """:meth:`improve` each border vertex among ``slots`` of a slot
        view with its ``dist[s]``, ``MIN``/``MAX`` compared inline — how
        SSSP/BFS publish."""
        border, ids = view.border, view.ids
        laid = self._lay(view)
        values, declared, marked = self._values, self._declared, self._marked
        sign, audit = self._sign, self.audit
        for s in slots:
            if not border[s]:
                continue
            x = dist[s]
            if not (laid and declared[s] and sign) or values[s] is None:
                self.improve(ids[s], x)
            elif x < values[s] if sign > 0 else x > values[s]:
                if audit is not None:
                    audit.check(self.aggregator.order, ids[s], values[s], x)
                values[s] = x
                if not marked[s]:
                    marked[s] = 1
                    self._changed.append(s)

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
            p = self._find(v)
            if p is None:
                continue
            count += self._values[p] != self.default
            self._values[p] = self.default
            if self._marked[p]:
                self._marked[p] = 0
                self._changed.remove(p)
        return count

    # ------------------------------------------------------------------
    # Message protocol (used by the engine)
    # ------------------------------------------------------------------
    def consume_changes(self) -> tuple:
        """Return and clear the ``(keys, values)`` columns of the
        variables changed since the last call — exactly the paper's
        automatic message content, in the order they first changed."""
        changed = self._changed
        if not changed:
            return (), ()
        self._changed, self._marked = [], bytearray(len(self._keys))
        return (
            list(map(self._keys.__getitem__, changed)),
            list(map(self._values.__getitem__, changed)),
        )

    def apply_columns(self, payloads: list[tuple]) -> set[VertexId]:
        """Aggregate every entry of each incoming ``(keys, values)``
        column pair into the store, ``MIN``/``MAX`` compared inline;
        returns the keys whose value changed (IncEval's update set
        ``M_i``), whose positions :meth:`received` reads back. A remote
        write does *not* mark its variable for sending: only later local
        improvements are shipped back, which keeps the fixpoint from
        echoing messages forever."""
        self._fit()
        self._moved = moved = []
        pos, values, declared = self._pos, self._values, self._declared
        sign, resolve, audit = self._sign, self.aggregator.resolve, self.audit
        for keys, xs in payloads:
            for k, x in zip(keys, xs):
                p = pos.get(k)
                if p is None or not declared[p]:
                    # A remote fragment may know border vertices this
                    # fragment never declared (e.g. directed cross edges).
                    self.declare([k])
                    pos = self._pos
                    p = pos[k]
                old = values[p]
                if old is None or not sign:
                    new = resolve(old, x)
                    if new == old:
                        continue
                elif x < old if sign > 0 else x > old:
                    new = x
                else:
                    continue
                if audit is not None:
                    audit.check(self.aggregator.order, k, old, new)
                values[p] = new
                moved.append(p)
        return set(map(self._keys.__getitem__, moved))

    def received(self, view, held) -> list[tuple[int, object]]:
        """``(slot, value)`` of each parameter the last mail changed —
        IncEval's seeds, read by position — whose vertex the fragment
        holds (``held``; a border slot's vertex always is)."""
        laid = self._lay(view)
        border, ids, values = view.border, view.ids, self._values
        if laid:
            return [
                (s, values[s]) for s in self._moved
                if border[s] or held(ids[s])
            ]
        index, keys = view.index, self._keys
        return [
            (s, values[p]) for p in self._moved
            if (s := index.get(keys[p])) is not None
            and (border[s] or held(ids[s]))
        ]

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
        declared = self._declared
        keys, values = self._keys, self._values
        return dict(zip(compress(keys, declared), compress(values, declared)))

    # ------------------------------------------------------------------
    # Pickling (checkpoints, state shipped to process workers): by key,
    # sorted — ``{key: value}``, the pending keys and whether the store
    # was declared from a view — never the layout, which a loaded store
    # rebuilds; pending work and the audit stay with the run that owns
    # them.
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        values = self.snapshot()
        return {
            "aggregator": self.aggregator,
            "default": self.default,
            "values": {k: values[k] for k in _sorted(list(values))},
            "pending": _sorted([self._keys[p] for p in self._changed]),
            "by_slot": self._by_slot,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["aggregator"], state["default"])
        values = state["values"]
        self._keys = keys = list(values)
        self._pos = dict(zip(keys, range(len(keys))))
        self._values = list(values.values())
        self._declared = bytearray(b"\x01") * len(keys)
        self._marked = bytearray(len(keys))
        for k in state["pending"]:
            self._mark(self._pos[k])
        self._by_slot = state["by_slot"]

    def __len__(self) -> int:
        return self._declared.count(1)

    def __repr__(self) -> str:
        return (
            f"<UpdateParams n={len(self)} "
            f"agg={self.aggregator.name} pending={len(self._changed)}>"
        )
