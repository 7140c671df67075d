"""The fragment storage seam: pluggable backing stores for :class:`Graph`.

A :class:`GraphStore` owns the *flat* single-direction primitives —
vertex table, one adjacency entry per stored arc, weight/label columns —
while :class:`repro.graph.digraph.Graph` keeps every compound rule on
top of them (undirected double-writes, edge counting, incident-edge
cleanup on vertex removal, :class:`~repro.errors.GraphError` raising).
That split means both stores share one implementation of the tricky
semantics and can only diverge in layout, never in behavior.

Two stores ship:

* :class:`DictStore` — the original adjacency-dict layout, the default
  and the byte-exact oracle every other store is tested against;
* :class:`repro.graph.csr.CSRStore` — compact ``array``-backed CSR rows
  with a delta-aware overlay (see that module).

The contract every store must honor, because engine determinism depends
on it: iteration order is *dict-store order*. Vertices iterate in first-
insertion order with remove+re-add moving a vertex to the end; per-vertex
adjacency iterates in edge-insertion order where a reweight keeps the
edge's position and a delete+re-insert moves it to the end.

Construction has its own primitive, :meth:`GraphStore.bulk_load`: legal
only on an *empty* store, it lands whole columns straight in the base
layout, and orders in are iteration orders out — vertices iterate in
column order, every out- and in-row in arc-column order, as if the arcs
had been stored one ``set_arc`` at a time. The mutators are for ΔG.
"""

from __future__ import annotations

from itertools import accumulate, chain, count
from typing import Hashable, Iterator

from repro.errors import GraphError

VertexId = Hashable

__all__ = ["GraphStore", "DictStore", "STORES", "make_store"]


class GraphStore:
    """Abstract single-direction storage primitives behind ``Graph``.

    All edge methods deal in *stored arcs*: the facade calls them once
    per direction it wants stored (twice for undirected graphs). Vertex
    existence is guaranteed by the facade before any edge call.
    """

    #: registry key; also what ``Graph.store_kind`` reports.
    kind = "abstract"

    # -- vertices ------------------------------------------------------
    def add_vertex(self, v: VertexId, label: str | None) -> bool:
        """Create ``v`` if absent; return True when freshly created."""
        raise NotImplementedError

    def set_vertex_label(self, v: VertexId, label: str | None) -> None:
        raise NotImplementedError

    def vertex_label(self, v: VertexId) -> str | None:
        raise NotImplementedError

    def update_vertex_props(self, v: VertexId, props: dict) -> None:
        raise NotImplementedError

    def vertex_props(self, v: VertexId) -> dict:
        raise NotImplementedError

    def has_vertex(self, v: VertexId) -> bool:
        raise NotImplementedError

    def vertices(self) -> Iterator[VertexId]:
        raise NotImplementedError

    def num_vertices(self) -> int:
        raise NotImplementedError

    def drop_vertex(self, v: VertexId) -> None:
        """Forget ``v``'s bookkeeping (incident arcs already removed)."""
        raise NotImplementedError

    # -- arcs ----------------------------------------------------------
    def set_arc(self, src: VertexId, dst: VertexId, weight: float) -> bool:
        """Store arc ``src -> dst``; return True when it did not exist."""
        raise NotImplementedError

    def delete_arc(self, src: VertexId, dst: VertexId) -> None:
        """Remove an arc known to exist (facade checks first)."""
        raise NotImplementedError

    def has_arc(self, src: VertexId, dst: VertexId) -> bool:
        raise NotImplementedError

    def arc_weight(self, src: VertexId, dst: VertexId) -> float:
        raise NotImplementedError

    def set_arc_label(self, src: VertexId, dst: VertexId, label: str) -> None:
        raise NotImplementedError

    def arc_label(self, src: VertexId, dst: VertexId) -> str | None:
        raise NotImplementedError

    def out_items(self, v: VertexId) -> Iterator[tuple[VertexId, float]]:
        """Lazy ``(dst, weight)`` pairs in dict-store order."""
        raise NotImplementedError

    def in_items(self, v: VertexId) -> Iterator[tuple[VertexId, float]]:
        """Lazy ``(src, weight)`` pairs in dict-store order."""
        raise NotImplementedError

    def out_items_labeled(
        self, v: VertexId
    ) -> Iterator[tuple[VertexId, float, str | None]]:
        """``(dst, weight, label)`` triples (label of arc ``v -> dst``)."""
        raise NotImplementedError

    def in_items_labeled(
        self, v: VertexId
    ) -> Iterator[tuple[VertexId, float, str | None]]:
        """``(src, weight, label)`` triples (label of arc ``src -> v``)."""
        raise NotImplementedError

    def out_degree(self, v: VertexId) -> int:
        raise NotImplementedError

    def in_degree(self, v: VertexId) -> int:
        raise NotImplementedError

    def out_columns(self) -> tuple:
        """Every out-arc at once, as CSR columns ``(indptr, adj, w)``.

        Vertex ``i`` is the ``i``-th in iteration order; its out-arcs are
        ``adj[indptr[i]:indptr[i + 1]]`` (the targets' positions in that
        order) with weights ``w[indptr[i]:indptr[i + 1]]``, in
        ``out_items`` order. Set-up readers (the partitioner, the slot
        view) take the graph this way instead of arc by arc. The columns
        are read-only: a store may hand over its own arrays.
        """
        return _rows_as_columns(
            {v: dict(self.out_items(v)) for v in self.vertices()}
        )

    # -- maintenance ---------------------------------------------------
    def bulk_load(self, vids, vlabels, vprops, srcs, dsts, weights, labels):
        """Fill this *empty* store in one pass, straight into its base layout.

        ``vids``/``vlabels``: parallel vertex columns in final iteration
        order; ``vprops``: vertex -> property dict, where there is one.
        ``srcs``/``dsts``/``weights``: parallel stored-arc columns in
        insertion order; ``labels``: ``(src, dst)`` -> label for the
        labelled arcs, in that order too. The store keeps both dicts.
        :class:`~repro.errors.GraphError` on a non-empty store, an arc
        end that is not in ``vids``, or a repeated vertex or arc.
        """
        raise NotImplementedError

    def fresh(self) -> "GraphStore":
        """Empty store of the same kind and configuration."""
        raise NotImplementedError

    def compact(self) -> bool:
        """Fold any overlay back into the base layout; True if it ran."""
        return False


class DictStore(GraphStore):
    """Adjacency-dict layout: the original ``Graph`` internals, verbatim.

    ``_out``/``_in`` are dict-of-dicts ``vid -> {vid -> weight}``; labels
    and props ride in side dicts. This is the oracle layout — its
    iteration order *defines* the ordering contract above.
    """

    kind = "dict"

    def __init__(self) -> None:
        self._out: dict[VertexId, dict[VertexId, float]] = {}
        self._in: dict[VertexId, dict[VertexId, float]] = {}
        self._vlabel: dict[VertexId, str | None] = {}
        self._vprops: dict[VertexId, dict[str, object]] = {}
        self._elabel: dict[tuple[VertexId, VertexId], str] = {}

    # -- vertices ------------------------------------------------------
    def add_vertex(self, v: VertexId, label: str | None) -> bool:
        if v in self._out:
            return False
        self._out[v] = {}
        self._in[v] = {}
        self._vlabel[v] = label
        return True

    def set_vertex_label(self, v: VertexId, label: str | None) -> None:
        self._vlabel[v] = label

    def vertex_label(self, v: VertexId) -> str | None:
        return self._vlabel[v]

    def update_vertex_props(self, v: VertexId, props: dict) -> None:
        self._vprops.setdefault(v, {}).update(props)

    def vertex_props(self, v: VertexId) -> dict:
        return self._vprops.get(v, {})

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._out

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._out)

    def num_vertices(self) -> int:
        return len(self._out)

    def drop_vertex(self, v: VertexId) -> None:
        del self._out[v]
        del self._in[v]
        del self._vlabel[v]
        self._vprops.pop(v, None)

    # -- arcs ----------------------------------------------------------
    def set_arc(self, src: VertexId, dst: VertexId, weight: float) -> bool:
        row = self._out[src]
        fresh = dst not in row
        row[dst] = weight
        self._in[dst][src] = weight
        return fresh

    def delete_arc(self, src: VertexId, dst: VertexId) -> None:
        del self._out[src][dst]
        del self._in[dst][src]
        self._elabel.pop((src, dst), None)

    def has_arc(self, src: VertexId, dst: VertexId) -> bool:
        row = self._out.get(src)
        return row is not None and dst in row

    def arc_weight(self, src: VertexId, dst: VertexId) -> float:
        return self._out[src][dst]

    def set_arc_label(self, src: VertexId, dst: VertexId, label: str) -> None:
        self._elabel[(src, dst)] = label

    def arc_label(self, src: VertexId, dst: VertexId) -> str | None:
        return self._elabel.get((src, dst))

    def out_items(self, v: VertexId) -> Iterator[tuple[VertexId, float]]:
        return iter(self._out[v].items())

    def in_items(self, v: VertexId) -> Iterator[tuple[VertexId, float]]:
        return iter(self._in[v].items())

    def out_items_labeled(self, v: VertexId):
        elabel = self._elabel
        for dst, w in self._out[v].items():
            yield dst, w, elabel.get((v, dst))

    def in_items_labeled(self, v: VertexId):
        elabel = self._elabel
        for src, w in self._in[v].items():
            yield src, w, elabel.get((src, v))

    def out_degree(self, v: VertexId) -> int:
        return len(self._out[v])

    def in_degree(self, v: VertexId) -> int:
        return len(self._in[v])

    def bulk_load(self, vids, vlabels, vprops, srcs, dsts, weights, labels):
        if self._out:
            raise GraphError("bulk_load needs an empty store")
        out = {v: {} for v in vids}
        inc = {v: {} for v in vids}
        try:
            for src, dst, w in zip(srcs, dsts, weights):
                out[src][dst] = w
                inc[dst][src] = w
        except KeyError as exc:
            raise GraphError(f"arc end {exc.args[0]} is no vertex") from None
        if len(out) != len(vids) or sum(map(len, out.values())) != len(srcs):
            raise GraphError("repeated vertex or arc in bulk_load")
        self._out, self._in = out, inc
        self._vlabel = dict(zip(vids, vlabels))
        self._vprops = vprops
        self._elabel = labels

    def out_columns(self) -> tuple:
        return _rows_as_columns(self._out)

    def fresh(self) -> "DictStore":
        return DictStore()


def _rows_as_columns(out: dict[VertexId, dict]) -> tuple[list, list, list]:
    """:meth:`GraphStore.out_columns` of the rows ``vertex -> {dst: w}``."""
    position = dict(zip(out, count())).__getitem__
    rows = out.values()
    return (
        list(accumulate(map(len, rows), initial=0)),
        list(map(position, chain.from_iterable(rows))),
        list(chain.from_iterable(map(dict.values, rows))),
    )


def _make_dict() -> GraphStore:
    return DictStore()


def _make_csr() -> GraphStore:
    from repro.graph.csr import CSRStore

    return CSRStore()


#: name -> zero-arg factory; ``Graph(store=...)`` and the CLI consult this.
STORES = {
    "dict": _make_dict,
    "csr": _make_csr,
}


def make_store(spec: "str | GraphStore | None") -> GraphStore:
    """Resolve a store spec: name, ready instance, or None (default)."""
    if spec is None:
        return DictStore()
    if isinstance(spec, GraphStore):
        return spec
    try:
        factory = STORES[spec]
    except KeyError:
        known = ", ".join(sorted(STORES))
        raise ValueError(
            f"unknown graph store {spec!r} (known: {known})"
        ) from None
    return factory()
