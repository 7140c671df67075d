"""The core directed property graph.

A :class:`Graph` is a simple directed graph (no parallel edges) with

* integer (or other hashable) vertex ids,
* an optional string *label* and a property dict per vertex,
* a float *weight* and optional string *label* per edge.

Both out- and in-adjacency are maintained so traversal algorithms
(Dijkstra, simulation, keyword search) and partitioners can walk edges in
either direction in O(degree). The structure is mutable; fragments
share no storage with the parent graph (copies are explicit), which
keeps worker-local state in the simulated cluster honest.

Storage is pluggable (``Graph(store=...)``): the graph itself is a thin
facade holding every compound rule — undirected double-writes, edge
counting, incident-edge cleanup, error raising — over a
:class:`repro.graph.store.GraphStore` that owns the flat layout. The
default ``"dict"`` store is the original adjacency-dict structure and the
byte-exact oracle; ``"csr"`` swaps in compact array-backed rows with a
delta-aware overlay (:mod:`repro.graph.csr`) behind the identical API
and iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from repro.errors import GraphError
from repro.graph.store import GraphStore, make_store

VertexId = Hashable


@dataclass(frozen=True)
class Edge:
    """A directed edge ``src -> dst`` with weight and optional label."""

    src: VertexId
    dst: VertexId
    weight: float = 1.0
    label: str | None = None


class Graph:
    """Mutable directed property graph.

    Example::

        g = Graph()
        g.add_edge(1, 2, weight=3.0)
        g.add_vertex(3, label="person", name="ann")
        g.out_neighbors(1)      # -> [2]
        g.edge_weight(1, 2)     # -> 3.0
    """

    def __init__(
        self,
        directed: bool = True,
        store: str | GraphStore | None = None,
    ) -> None:
        self.directed = directed
        self._store = make_store(store)
        self._num_edges = 0

    @property
    def store_kind(self) -> str:
        """Name of the backing store ("dict", "csr", ...)."""
        return self._store.kind

    @property
    def store(self) -> GraphStore:
        """The backing :class:`GraphStore` (for storage-aware tooling)."""
        return self._store

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(
        self,
        v: VertexId,
        label: str | None = None,
        **props: object,
    ) -> None:
        """Add vertex ``v`` (idempotent); label/props update existing."""
        if not self._store.add_vertex(v, label) and label is not None:
            self._store.set_vertex_label(v, label)
        if props:
            self._store.update_vertex_props(v, props)

    def add_edge(
        self,
        src: VertexId,
        dst: VertexId,
        weight: float = 1.0,
        label: str | None = None,
    ) -> None:
        """Add (or overwrite) edge ``src -> dst``.

        Endpoints are created on demand. For an undirected graph the
        reverse edge is stored as well but counted once.
        """
        if not weight >= 0:  # NaN compares false both ways
            raise GraphError(
                f"edge weight must be >= 0, got {weight} on {src}->{dst}"
            )
        self.add_vertex(src)
        self.add_vertex(dst)
        fresh = self._store.set_arc(src, dst, weight)
        if label is not None:
            self._store.set_arc_label(src, dst, label)
        if not self.directed:
            self._store.set_arc(dst, src, weight)
            if label is not None:
                self._store.set_arc_label(dst, src, label)
        if fresh:
            self._num_edges += 1

    def remove_edge(self, src: VertexId, dst: VertexId) -> None:
        """Remove edge ``src -> dst``; GraphError if absent."""
        if not self.has_edge(src, dst):
            raise GraphError(f"no edge {src}->{dst}")
        self._store.delete_arc(src, dst)
        if not self.directed and src != dst:  # a self-loop is one arc
            self._store.delete_arc(dst, src)
        self._num_edges -= 1

    def remove_vertex(self, v: VertexId) -> None:
        """Remove ``v`` and all incident edges; GraphError if absent."""
        self._require(v)
        for dst in self.out_neighbors(v):
            self.remove_edge(v, dst)
        for src in self.in_neighbors(v):
            if self.has_edge(src, v):
                self.remove_edge(src, v)
        self._store.drop_vertex(v)

    def compact(self) -> bool:
        """Fold any storage overlay into its base layout (True if it ran).

        A no-op for the dict store; for CSR this forces the side log
        back into fresh base arrays without waiting for the automatic
        threshold. Semantically invisible either way.
        """
        return self._store.compact()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return self._store.num_vertices()

    @property
    def num_edges(self) -> int:
        """Number of (stored) edges."""
        return self._num_edges

    def __len__(self) -> int:
        return self._store.num_vertices()

    def __contains__(self, v: VertexId) -> bool:
        return self._store.has_vertex(v)

    def has_vertex(self, v: VertexId) -> bool:
        """Whether vertex ``v`` exists."""
        return self._store.has_vertex(v)

    def has_edge(self, src: VertexId, dst: VertexId) -> bool:
        """Whether edge ``src -> dst`` exists."""
        return self._store.has_vertex(src) and self._store.has_arc(src, dst)

    def vertices(self) -> Iterator[VertexId]:
        """Iterate all vertex ids."""
        return self._store.vertices()

    def edges(self) -> Iterator[Edge]:
        """Iterate every stored directed edge (each once for directed)."""
        for src in self._store.vertices():
            for dst, weight, label in self._store.out_items_labeled(src):
                if not self.directed and repr(dst) < repr(src):
                    continue  # report each undirected edge once
                yield Edge(src, dst, weight, label)

    def out_neighbors(self, v: VertexId) -> list[VertexId]:
        """Targets of ``v``'s outgoing edges."""
        self._require(v)
        return [dst for dst, _ in self._store.out_items(v)]

    def in_neighbors(self, v: VertexId) -> list[VertexId]:
        """Sources of ``v``'s incoming edges."""
        self._require(v)
        return [src for src, _ in self._store.in_items(v)]

    def neighbors(self, v: VertexId) -> list[VertexId]:
        """Union of out- and in-neighbors (undirected adjacency)."""
        return list(self.iter_neighbors(v))

    def iter_out(self, v: VertexId) -> Iterator[tuple[VertexId, float]]:
        """Lazy ``(dst, weight)`` over ``v``'s out-edges (no list built).

        The zero-copy hot path for PEval/IncEval inner loops: CSR rows
        stream straight out of the arrays.
        """
        self._require(v)
        return self._store.out_items(v)

    def iter_in(self, v: VertexId) -> Iterator[tuple[VertexId, float]]:
        """Lazy ``(src, weight)`` over ``v``'s in-edges (no list built)."""
        self._require(v)
        return self._store.in_items(v)

    def iter_neighbors(self, v: VertexId) -> Iterator[VertexId]:
        """Lazy union of out- then unseen in-neighbors (stable order)."""
        self._require(v)
        seen = {}
        for dst, _ in self._store.out_items(v):
            if dst not in seen:
                seen[dst] = None
                yield dst
        for src, _ in self._store.in_items(v):
            if src not in seen:
                seen[src] = None
                yield src

    def out_edges(self, v: VertexId) -> list[Edge]:
        """This vertex's outgoing edges."""
        self._require(v)
        return [
            Edge(v, dst, w, label)
            for dst, w, label in self._store.out_items_labeled(v)
        ]

    def in_edges(self, v: VertexId) -> list[Edge]:
        """Incoming edges of ``v``."""
        self._require(v)
        return [
            Edge(src, v, w, label)
            for src, w, label in self._store.in_items_labeled(v)
        ]

    def out_degree(self, v: VertexId) -> int:
        """Number of outgoing edges of ``v``."""
        self._require(v)
        return self._store.out_degree(v)

    def in_degree(self, v: VertexId) -> int:
        """Number of incoming edges of ``v``."""
        self._require(v)
        return self._store.in_degree(v)

    def degree(self, v: VertexId) -> int:
        """Number of distinct neighbors of ``v`` (either direction)."""
        return len(self.neighbors(v))

    def edge_weight(self, src: VertexId, dst: VertexId) -> float:
        """Weight of edge ``src -> dst`` (GraphError if absent)."""
        if not self.has_edge(src, dst):
            raise GraphError(f"no edge {src}->{dst}")
        return self._store.arc_weight(src, dst)

    def edge_label(self, src: VertexId, dst: VertexId) -> str | None:
        """Label of edge ``src -> dst`` (GraphError if absent)."""
        if not self.has_edge(src, dst):
            raise GraphError(f"no edge {src}->{dst}")
        return self._store.arc_label(src, dst)

    def vertex_label(self, v: VertexId) -> str | None:
        """Label of vertex ``v`` (GraphError if absent)."""
        self._require(v)
        return self._store.vertex_label(v)

    def vertex_props(self, v: VertexId) -> dict[str, object]:
        """Property dict of vertex ``v`` (may be empty)."""
        self._require(v)
        return self._store.vertex_props(v)

    def vertices_with_label(self, label: str) -> list[VertexId]:
        """All vertices carrying ``label`` (linear scan; see storage.index)."""
        store = self._store
        return [v for v in store.vertices() if store.vertex_label(v) == label]

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def _blank(self, directed: bool) -> "Graph":
        """Empty graph on a fresh store of the same kind/configuration."""
        return Graph(directed=directed, store=self._store.fresh())

    def bulk_load(self, vids, vlabels, vprops, srcs, dsts, weights, labels):
        """Build this *empty* graph in one pass from whole columns.

        Shapes as in :meth:`GraphStore.bulk_load`, rules as in
        ``add_edge``: each edge is given once, an undirected one stores
        its reverse arc right behind it, and a negative or NaN weight (like
        a repeated edge) is a :class:`GraphError` naming the first one.
        """
        for w in weights:
            if not w >= 0:  # NaN compares false both ways
                raise GraphError(f"edge weight must be >= 0, got {w}")
        num_edges = len(srcs)
        if not self.directed:
            edges, given = zip(srcs, dsts, weights), labels
            srcs, dsts, weights, labels = [], [], [], {}
            for src, dst, w in edges:
                label = given.get((src, dst))
                # a self-loop is one arc
                for arc in dict.fromkeys([(src, dst), (dst, src)]):
                    srcs.append(arc[0])
                    dsts.append(arc[1])
                    weights.append(w)
                    if label is not None:
                        labels[arc] = label
        self._store.bulk_load(
            vids, vlabels, vprops, srcs, dsts, weights, labels
        )
        self._num_edges = num_edges

    def _derive(self, target: "Graph", vertices, flip=False) -> "Graph":
        """Bulk-load empty ``target`` with this graph's edges among
        ``vertices`` (their iteration order is the new vertex order),
        in out-edge order, optionally flipped."""
        store = self._store
        vids = list(vertices)
        at = {v: i for i, v in enumerate(vids)}
        srcs, dsts, weights, labels = [], [], [], {}
        for i, src in enumerate(vids):
            for dst, w, label in store.out_items_labeled(src):
                j = at.get(dst)
                # an undirected edge sits in both ends' rows: the earlier
                # end hands it over, once
                if j is None or (j < i and not self.directed):
                    continue
                arc = (dst, src) if flip else (src, dst)
                srcs.append(arc[0])
                dsts.append(arc[1])
                weights.append(w)
                if label is not None:
                    labels[arc] = label
        target.bulk_load(
            vids,
            [store.vertex_label(v) for v in vids],
            {v: dict(p) for v in vids if (p := store.vertex_props(v))},
            srcs, dsts, weights, labels,
        )
        return target

    def copy(self) -> "Graph":
        """Deep-enough copy: structure and labels; props shallow-copied."""
        return self._derive(self._blank(self.directed), self._store.vertices())

    def subgraph(self, vertices: Iterable[VertexId]) -> "Graph":
        """Induced subgraph over ``vertices`` (copies labels/props)."""
        keep = set(vertices)
        for v in keep:
            self._require(v)
        return self._derive(self._blank(self.directed), keep)

    def reversed(self) -> "Graph":
        """Graph with every edge direction flipped."""
        return self._derive(
            self._blank(self.directed), self._store.vertices(), flip=True
        )

    def as_undirected(self) -> "Graph":
        """Undirected copy (weights of antiparallel pairs: last wins)."""
        store = self._store
        g = self._blank(False)
        for v in store.vertices():
            g.add_vertex(v, store.vertex_label(v), **store.vertex_props(v))
        for src in store.vertices():
            for dst, w, label in store.out_items_labeled(src):
                g.add_edge(src, dst, w, label)
        return g

    def with_store(self, store: str | GraphStore) -> "Graph":
        """Copy of this graph rebuilt on a different backing store."""
        return self._derive(
            Graph(directed=self.directed, store=store), self._store.vertices()
        )

    def __repr__(self) -> str:
        kind = "digraph" if self.directed else "graph"
        return f"<Graph {kind} |V|={self.num_vertices} |E|={self.num_edges}>"

    def _require(self, v: VertexId) -> None:
        if not self._store.has_vertex(v):
            raise GraphError(f"no vertex {v}")
