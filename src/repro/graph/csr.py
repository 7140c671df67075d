"""Compact CSR fragment storage with a delta-aware overlay.

Layout
------
Vertices get dense integer *slots*. The base graph is a classic CSR per
direction — ``indptr``/``adjacency`` slot arrays plus columnar weight and
interned-label columns, all :mod:`array` typecode ``'q'``/``'d'`` (no
numpy) — frozen at the last compaction. Mutations land in a side log
keyed by vertex id:

* ``_add_*``   — fresh arcs appended after the base row (dict order);
* ``_del_*``   — masks over base arcs (each mask hits exactly one base
  entry, so degrees stay O(1));
* reweights of base arcs write the weight column *in place*, which keeps
  the arc's position exactly like the dict store does;
* ``_lab_over`` — authoritative current label for any overlay-touched
  arc (``None`` means "no label now", shadowing a stale base column).

The overlay speaks the same vocabulary as ``GraphDelta`` routing and
``apply_fragment_effects`` (all of which arrive through the unchanged
``Graph`` facade), so process-backend effect shipping works verbatim.

Ordering contract (what makes CSR byte-identical to the dict oracle):
iterate the base row skipping masks, then the appended adds; a reweight
keeps base position; a delete + re-insert leaves the base entry masked
and re-appends, i.e. the arc moves to the end — precisely dict-store
semantics. Removed-then-re-added vertices get a *new* slot past the base
range, so their dead base rows are unreachable and masked references to
their old slot still resolve to the right vertex id via ``_ids``.

Compaction folds the overlay back into fresh CSR arrays once the side
log exceeds a threshold (``max(1024, stored_arcs // 2)`` by default, or
the explicit ``compact_threshold``). It preserves logical iteration
order exactly, squeezes dead slots, and is therefore semantically
invisible — ``compactions`` counts runs so tests and E15 can assert it
actually happened. Construction never takes this road: ``bulk_load``
fills the base columns of an empty store directly, through the same
column builder, so the side log only ever holds ΔG.

Pickling narrows slot arrays to the smallest integer typecode that fits
and omits all-default label columns and the rebuildable slot index,
which is what makes CSR fragments strictly cheaper on the wire than the
dict store for the process backend.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import accumulate, chain, compress, repeat
from typing import Hashable, Iterator

from repro.errors import GraphError
from repro.graph.store import GraphStore

VertexId = Hashable

__all__ = ["CSRStore"]

_EMPTY: frozenset = frozenset()
_MISS = object()

#: narrowest unsigned array typecodes, widest-last (pickle shrinking).
_NARROW = ("B", "H", "I", "q")


def _narrowed(values: array) -> tuple[str, bytes]:
    """Re-encode a ``'q'`` array in the smallest typecode that fits."""
    top = max(values) if len(values) else 0
    for code in _NARROW:
        limit = 2 ** (8 * array(code).itemsize - (1 if code == "q" else 0))
        if top < limit:
            return code, array(code, values).tobytes()
    raise AssertionError("unreachable")  # pragma: no cover


def _widened(code: str, raw: bytes) -> array:
    """Inverse of :func:`_narrowed`: back to the working ``'q'`` layout."""
    packed = array(code)
    packed.frombytes(raw)
    return packed if code == "q" else array("q", packed)


class CSRStore(GraphStore):
    """Base CSR per direction + vid-keyed overlay; see module docstring."""

    kind = "csr"

    def __init__(self, compact_threshold: int | None = None) -> None:
        #: explicit side-log size that forces compaction (None = adaptive).
        self.compact_threshold = compact_threshold
        #: number of compactions performed over this store's lifetime.
        self.compactions = 0
        # vertex table -------------------------------------------------
        self._index: dict[VertexId, int] = {}  # vid -> slot, dict order
        self._ids: list[VertexId] = []  # slot -> vid (append-only)
        self._vlab = array("q")  # slot -> interned label id
        self._lut: list[str | None] = [None]  # label id -> label
        self._lut_ids: dict[str | None, int] = {None: 0}
        self._vprops: dict[VertexId, dict[str, object]] = {}
        # base CSR (covers slots < len(indptr) - 1) ---------------------
        self._out_indptr = array("q", [0])
        self._out_adj = array("q")
        self._out_w = array("d")
        self._out_lab = array("q")
        self._in_indptr = array("q", [0])
        self._in_adj = array("q")
        self._in_w = array("d")
        self._in_lab = array("q")
        # overlay ------------------------------------------------------
        self._add_out: dict[VertexId, dict[VertexId, float]] = {}
        self._del_out: dict[VertexId, set[VertexId]] = {}
        self._add_in: dict[VertexId, dict[VertexId, float]] = {}
        self._del_in: dict[VertexId, set[VertexId]] = {}
        self._lab_over: dict[tuple[VertexId, VertexId], str | None] = {}
        self._ov_ops = 0

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    def add_vertex(self, v: VertexId, label: str | None) -> bool:
        if v in self._index:
            return False
        self._index[v] = len(self._ids)
        self._ids.append(v)
        self._vlab.append(self._lab_id(label))
        return True

    def set_vertex_label(self, v: VertexId, label: str | None) -> None:
        self._vlab[self._index[v]] = self._lab_id(label)

    def vertex_label(self, v: VertexId) -> str | None:
        return self._lut[self._vlab[self._index[v]]]

    def update_vertex_props(self, v: VertexId, props: dict) -> None:
        self._vprops.setdefault(v, {}).update(props)

    def vertex_props(self, v: VertexId) -> dict:
        return self._vprops.get(v, {})

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._index

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._index)

    def num_vertices(self) -> int:
        return len(self._index)

    def drop_vertex(self, v: VertexId) -> None:
        # Incident arcs are already gone (the facade removes them first);
        # the slot goes dead until compaction squeezes it. Masks held by
        # *other* vertices over arcs into v must survive: they still
        # shadow live base entries.
        del self._index[v]
        self._vprops.pop(v, None)
        self._add_out.pop(v, None)
        self._del_out.pop(v, None)
        self._add_in.pop(v, None)
        self._del_in.pop(v, None)

    # ------------------------------------------------------------------
    # Arcs
    # ------------------------------------------------------------------
    def set_arc(self, src: VertexId, dst: VertexId, weight: float) -> bool:
        adds = self._add_out.get(src)
        if adds is not None and dst in adds:
            adds[dst] = weight  # reweight keeps overlay position
            self._add_in[dst][src] = weight
            return False
        if dst in self._del_out.get(src, _EMPTY):
            # the base arc stays masked; a re-insert appends at the end,
            # exactly where the dict store would put it
            self._append_arc(src, dst, weight)
            return True
        i = self._base_find(src, dst, out=True)
        if i is not None:
            # in-place reweight: position preserved, no side-log growth
            self._out_w[i] = weight
            self._in_w[self._base_find(dst, src, out=False)] = weight
            return False
        self._append_arc(src, dst, weight)
        return True

    def delete_arc(self, src: VertexId, dst: VertexId) -> None:
        adds = self._add_out.get(src)
        if adds is not None and dst in adds:
            del adds[dst]
            del self._add_in[dst][src]
        else:
            self._del_out.setdefault(src, set()).add(dst)
            self._del_in.setdefault(dst, set()).add(src)
        # authoritative "no label": shadows any stale base label column
        # entry if the arc is ever re-inserted
        self._lab_over[(src, dst)] = None
        self._ov_ops += 1
        self._maybe_compact()

    def has_arc(self, src: VertexId, dst: VertexId) -> bool:
        adds = self._add_out.get(src)
        if adds is not None and dst in adds:
            return True
        if dst in self._del_out.get(src, _EMPTY):
            return False
        return self._base_find(src, dst, out=True) is not None

    def arc_weight(self, src: VertexId, dst: VertexId) -> float:
        adds = self._add_out.get(src)
        if adds is not None and dst in adds:
            return adds[dst]
        return self._out_w[self._base_find(src, dst, out=True)]

    def set_arc_label(self, src: VertexId, dst: VertexId, label: str) -> None:
        self._lab_over[(src, dst)] = label

    def arc_label(self, src: VertexId, dst: VertexId) -> str | None:
        label = self._lab_over.get((src, dst), _MISS)
        if label is not _MISS:
            return label
        i = self._base_find(src, dst, out=True)
        return None if i is None else self._lut[self._out_lab[i]]

    # ------------------------------------------------------------------
    # Iteration (the engine's hot paths)
    # ------------------------------------------------------------------
    def out_items(self, v: VertexId):
        lo, hi = self._base_range(self._out_indptr, self._index[v])
        if lo != hi:
            ids = self._ids
            dels = self._del_out.get(v, _EMPTY)
            row = memoryview(self._out_adj)[lo:hi]
            wts = memoryview(self._out_w)[lo:hi]
            for k, slot in enumerate(row):
                dst = ids[slot]
                if dst not in dels:
                    yield dst, wts[k]
        adds = self._add_out.get(v)
        if adds:
            yield from adds.items()

    def in_items(self, v: VertexId):
        lo, hi = self._base_range(self._in_indptr, self._index[v])
        if lo != hi:
            ids = self._ids
            dels = self._del_in.get(v, _EMPTY)
            row = memoryview(self._in_adj)[lo:hi]
            wts = memoryview(self._in_w)[lo:hi]
            for k, slot in enumerate(row):
                src = ids[slot]
                if src not in dels:
                    yield src, wts[k]
        adds = self._add_in.get(v)
        if adds:
            yield from adds.items()

    def out_items_labeled(self, v: VertexId):
        lo, hi = self._base_range(self._out_indptr, self._index[v])
        over = self._lab_over
        if lo != hi:
            ids, lut = self._ids, self._lut
            dels = self._del_out.get(v, _EMPTY)
            for i in range(lo, hi):
                dst = ids[self._out_adj[i]]
                if dst in dels:
                    continue
                label = over.get((v, dst), _MISS)
                if label is _MISS:
                    label = lut[self._out_lab[i]]
                yield dst, self._out_w[i], label
        adds = self._add_out.get(v)
        if adds:
            for dst, w in adds.items():
                yield dst, w, over.get((v, dst))

    def in_items_labeled(self, v: VertexId):
        lo, hi = self._base_range(self._in_indptr, self._index[v])
        over = self._lab_over
        if lo != hi:
            ids, lut = self._ids, self._lut
            dels = self._del_in.get(v, _EMPTY)
            for i in range(lo, hi):
                src = ids[self._in_adj[i]]
                if src in dels:
                    continue
                label = over.get((src, v), _MISS)
                if label is _MISS:
                    label = lut[self._in_lab[i]]
                yield src, self._in_w[i], label
        adds = self._add_in.get(v)
        if adds:
            for src, w in adds.items():
                yield src, w, over.get((src, v))

    def out_degree(self, v: VertexId) -> int:
        lo, hi = self._base_range(self._out_indptr, self._index[v])
        return (
            hi - lo
            - len(self._del_out.get(v, _EMPTY))
            + len(self._add_out.get(v, _EMPTY))
        )

    def in_degree(self, v: VertexId) -> int:
        lo, hi = self._base_range(self._in_indptr, self._index[v])
        return (
            hi - lo
            - len(self._del_in.get(v, _EMPTY))
            + len(self._add_in.get(v, _EMPTY))
        )

    def out_columns(self) -> tuple:
        n = len(self._index)
        if len(self._ids) != n:  # dead slots: a slot is not a position
            return super().out_columns()
        indptr, adj, w = self._out_indptr, self._out_adj, self._out_w
        if len(indptr) > n and not (self._add_out or self._del_out):
            return indptr, adj, w  # the base columns, as they are
        # one base row per slot (empty past the base), then the overlay
        spans = list(map(slice, indptr, indptr[1:]))
        spans += repeat(slice(0, 0), n + 1 - len(indptr))
        rows = list(map(adj.__getitem__, spans))
        wts = list(map(w.__getitem__, spans))
        ids, index = self._ids, self._index
        for v, gone in self._del_out.items():
            s = index[v]
            keep = [ids[t] not in gone for t in rows[s]]
            rows[s] = list(compress(rows[s], keep))
            wts[s] = list(compress(wts[s], keep))
        for v, adds in self._add_out.items():
            s = index[v]
            rows[s] = [*rows[s], *map(index.__getitem__, adds)]
            wts[s] = [*wts[s], *adds.values()]
        return (
            list(accumulate(map(len, rows), initial=0)),
            list(chain.from_iterable(rows)),
            list(chain.from_iterable(wts)),
        )

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    @property
    def overlay_ops(self) -> int:
        """Arc inserts/deletes sitting in the side log since compaction."""
        return self._ov_ops

    def dirty(self) -> bool:
        """Whether any overlay state or dead slot is pending compaction."""
        return bool(
            self._add_out
            or self._del_out
            or self._lab_over
            or len(self._ids) != len(self._index)
        )

    def compact(self) -> bool:
        """Fold the overlay into fresh base arrays (order-preserving)."""
        if not self.dirty():
            return False
        order = list(self._index)
        new_index = {v: i for i, v in enumerate(order)}
        out = self._gather(order, new_index, self.out_items_labeled)
        inc = self._gather(order, new_index, self.in_items_labeled)
        self._ids = order
        self._vlab = array("q", (self._vlab[s] for s in
                                 (self._index[v] for v in order)))
        self._index = new_index
        (self._out_indptr, self._out_adj, self._out_w, self._out_lab) = out
        (self._in_indptr, self._in_adj, self._in_w, self._in_lab) = inc
        self._add_out = {}
        self._del_out = {}
        self._add_in = {}
        self._del_in = {}
        self._lab_over = {}
        self._ov_ops = 0
        self.compactions += 1
        return True

    def _gather(self, order, new_index, items):
        """One direction of this store's own content as base columns."""
        keys, others, wts, labels = [], [], [], []
        for slot, v in enumerate(order):
            for other, w, label in items(v):
                keys.append(slot)
                others.append(new_index[other])
                wts.append(w)
                labels.append(label)
        return self._columns(len(order), keys, others, wts, labels)

    def _columns(self, n, keys, others, wts, labels):
        """The one column builder: ``indptr``/``adj``/``w``/``lab`` over
        ``n`` slots from flat arc columns, row ``s`` holding the arcs
        with ``keys[k] == s`` in column order (a stable sort by key);
        ``labels`` is per arc, or empty when no arc carries one."""
        order = sorted(range(len(keys)), key=keys.__getitem__)
        sizes = Counter(keys)
        indptr = array("q", [0])
        indptr.extend(accumulate(map(sizes.__getitem__, range(n))))
        adj = array("q", map(others.__getitem__, order))
        w = array("d", map(wts.__getitem__, order))
        lab = array("q", map(self._lab_id, map(labels.__getitem__, order))
                    if labels else repeat(0, len(order)))
        return indptr, adj, w, lab

    def bulk_load(self, vids, vlabels, vprops, srcs, dsts, weights, labels):
        if self._ids:
            raise GraphError("bulk_load needs an empty store")
        index = {v: i for i, v in enumerate(vids)}
        try:
            ss = list(map(index.__getitem__, srcs))
            ds = list(map(index.__getitem__, dsts))
        except KeyError as exc:
            raise GraphError(f"arc end {exc.args[0]} is no vertex") from None
        vlab = array("q", map(self._lab_id, vlabels))
        per_arc = list(map(labels.get, zip(srcs, dsts))) if labels else []
        out = self._columns(len(vids), ss, ds, weights, per_arc)
        indptr, adj = out[:2]
        if len(index) != len(vids) or any(  # a row is a set of targets
            len(set(adj[lo:hi])) != hi - lo
            for lo, hi in zip(indptr, indptr[1:])
        ):
            raise GraphError("repeated vertex or arc in bulk_load")
        inc = self._columns(len(vids), ds, ss, weights, per_arc)
        self._index, self._ids, self._vlab = index, list(vids), vlab
        self._vprops = vprops
        (self._out_indptr, self._out_adj, self._out_w, self._out_lab) = out
        (self._in_indptr, self._in_adj, self._in_w, self._in_lab) = inc

    def _maybe_compact(self) -> None:
        threshold = self.compact_threshold
        if threshold is None:
            threshold = max(1024, (len(self._out_adj) + len(self._in_adj)) // 2)
        if self._ov_ops >= threshold:
            self.compact()

    def fresh(self) -> "CSRStore":
        return CSRStore(compact_threshold=self.compact_threshold)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lab_id(self, label: str | None) -> int:
        lid = self._lut_ids.get(label)
        if lid is None:
            lid = len(self._lut)
            self._lut_ids[label] = lid
            self._lut.append(label)
        return lid

    @staticmethod
    def _base_range(indptr: array, slot: int) -> tuple[int, int]:
        if slot >= len(indptr) - 1:
            return 0, 0  # slot assigned after the last compaction
        return indptr[slot], indptr[slot + 1]

    def _base_find(self, src: VertexId, dst: VertexId, *, out: bool):
        """Index of arc ``src -> dst`` in the base arrays, or None.

        Scans by *current* slot, which is complete for live base arcs: a
        vertex re-added since compaction has a fresh slot past the base
        range, and every base arc touching its old slot is masked.
        """
        dslot = self._index.get(dst)
        if dslot is None:
            return None
        indptr = self._out_indptr if out else self._in_indptr
        adj = self._out_adj if out else self._in_adj
        lo, hi = self._base_range(indptr, self._index[src])
        if lo == hi or dslot >= len(indptr) - 1:
            return None
        for i in range(lo, hi):
            if adj[i] == dslot:
                return i
        return None

    def _append_arc(self, src: VertexId, dst: VertexId, weight: float) -> None:
        self._add_out.setdefault(src, {})[dst] = weight
        self._add_in.setdefault(dst, {})[src] = weight
        self._ov_ops += 1
        self._maybe_compact()

    # ------------------------------------------------------------------
    # Pickling: narrow slot arrays, drop rebuildables
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        for name in ("_out_indptr", "_out_adj", "_out_lab",
                     "_in_indptr", "_in_adj", "_in_lab", "_vlab"):
            col = state[name]
            if name.endswith("lab") and not any(col):
                state[name] = len(col)  # all-default column: ship length
            else:
                state[name] = _narrowed(col)
        if self._ids == list(self._index):
            state["_index"] = None  # aligned: rebuild from _ids
        return state

    def __setstate__(self, state):
        for name in ("_out_indptr", "_out_adj", "_out_lab",
                     "_in_indptr", "_in_adj", "_in_lab", "_vlab"):
            packed = state[name]
            if isinstance(packed, int):
                state[name] = array("q", bytes(8 * packed))
            else:
                state[name] = _widened(*packed)
        if state["_index"] is None:
            state["_index"] = {v: i for i, v in enumerate(state["_ids"])}
        self.__dict__.update(state)
