"""Graph fragmentation: edge-cut fragments with border bookkeeping.

Following the paper (Section 2.2), a graph ``G`` is fragmented into
``(F_1, ..., F_n)`` by a partition strategy. Each fragment ``F_i``
consists of

* the vertices *owned* by worker ``P_i`` (``V_i``),
* every edge whose source is owned (``E_i``), and
* *mirror* copies of out-neighbors owned elsewhere (``F_i.O``).

The *border nodes* of ``F_i`` — where update parameters live — are the
owned vertices known to some other fragment (``F_i.I``, i.e. targets of
cross edges) together with the mirrors (``F_i.O``). A
:class:`FragmentedGraph` additionally records, for every vertex, the set
of fragments that host a copy (:class:`Routes`, edited in place by ΔG);
the runtime routes update-parameter messages by it.

A fragment can also lend list-indexed kernels a :class:`SlotView` — its
vertices numbered densely, with out-rows over those numbers — built on
first use and kept in step with ΔG by :func:`apply_fragment_effects`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Hashable, Mapping, Sequence

from repro.errors import PartitionError
from repro.graph.digraph import Graph
from repro.graph.store import GraphStore, make_store

VertexId = Hashable


class Slot(tuple):
    """``(vertices, writer)``: fragment ``writer``'s cumulative column
    toward ``vertices`` (one owner's), routed to that owner
    (:class:`Routes`)."""

    __slots__ = ()


class Routes(dict):
    """The routing table, GraphX's: vertex -> the set of fragments
    hosting a copy (owner and mirrors), built once per partitioning and
    edited in place by ΔG. A :class:`Slot` is routed by rule on first
    use: to its vertices' owner and its writer. A writer sends to every
    host but itself."""

    __slots__ = ("fragmented",)

    def __init__(self, fragmented: "FragmentedGraph") -> None:
        super().__init__()
        self.fragmented = fragmented

    def __missing__(self, key: VertexId) -> tuple[int, ...]:
        if type(key) is not Slot:
            raise KeyError(key)
        hosts = self[key] = (self.fragmented.assignment[key[0][0]], key[1])
        return hosts


#: One per-fragment mutation record — a plain tuple so effect logs can
#: travel to process-backend workers over a pipe. First element is the
#: effect kind; see :func:`apply_fragment_effects` for the vocabulary.
FragmentEffect = tuple


def apply_fragment_effects(frag: "Fragment", records: Sequence[tuple]) -> None:
    """Replay a per-fragment effect log onto ``frag``.

    The single interpreter behind ΔG mutation: the coordinator-side
    :class:`FragmentedGraph` mutators *emit* these records while applying
    them locally, and the process backend ships the same records to the
    worker that owns a copy of the fragment — both sides execute
    identical mutations, so fragment state can never diverge. A built
    :class:`SlotView` is kept in step: each record refreshes the slots
    of the vertices it may have changed.
    """
    view = frag.__dict__.get("_slot_view")
    graph = frag.graph
    for record in records:
        kind = record[0]
        if kind == "add_vertex":
            _, v, label, props = record
            graph.add_vertex(v, label, **props)
            touched = (v,)
        elif kind == "add_edge":
            _, src, dst, weight, label = record
            graph.add_edge(src, dst, weight, label)
            touched = (src, dst)
        elif kind == "remove_edge":
            _, src, dst = record
            graph.remove_edge(src, dst)
            touched = (src, dst)
        elif kind == "remove_vertex":
            _, v = record
            if view is not None:
                touched = (v, *graph.neighbors(v))  # rows that point at v
            graph.remove_vertex(v)
        elif kind == "set_mirror":
            _, v, owner = record
            frag.mirrors[v] = owner
            touched = (v,)
        elif kind == "drop_mirror":
            _, v = record
            frag.mirrors.pop(v, None)
            touched = (v,)
        elif kind == "add_inner_border":
            _, v = record
            frag.inner_border.add(v)
            touched = (v,)
        elif kind == "discard_inner_border":
            _, v = record
            frag.inner_border.discard(v)
            touched = (v,)
        else:
            raise PartitionError(f"unknown fragment effect {kind!r}")
        if view is not None:
            view.refresh(frag, touched)


class SlotView:
    """A fragment's vertices numbered densely, for list-indexed kernels.

    ``ids[s]`` is the vertex in slot ``s``: the owned vertices in
    ``fragment.owned`` order, then the mirrors in ``fragment.mirrors``
    order, then whatever ΔG adds, appended. Slots are never renumbered:
    a vertex that leaves the fragment keeps its slot (with an empty row)
    and gets it back if it returns. ``index`` inverts ``ids``;
    ``out[s]`` lists the out-arcs of ``ids[s]`` as ``(slot, weight)``
    (a mirror's too — an undirected mirror stores its arc back);
    ``border[s]`` is whether ``ids[s]`` carries an update parameter
    (inner border or mirror); ``border_slots`` lists every slot that
    has carried one, once, in the order it first did (slot order at
    build, then as ΔG flags them) — what a parameter store declares
    from.
    """

    __slots__ = ("ids", "index", "out", "border", "border_slots")

    def __init__(self, fragment: "Fragment") -> None:
        graph = fragment.graph
        # owned vertices, then mirrors, then anything else the graph holds
        self.ids = list(
            dict.fromkeys(
                chain(fragment.owned, fragment.mirrors, graph.vertices())
            )
        )
        index = self.index = {v: s for s, v in enumerate(self.ids)}
        if graph.store_kind == "csr":
            # one pass over the store's columns (a dict store's rows read
            # faster one by one); tr maps a store position to a slot
            indptr, adj, w = graph.store.out_columns()
            tr = list(map(index.__getitem__, graph.vertices()))
            self.out = out = [[] for _ in self.ids]
            for s, lo, hi in zip(tr, indptr, indptr[1:]):
                out[s] = list(zip(map(tr.__getitem__, adj[lo:hi]), w[lo:hi]))
        else:
            self.out = [self._row(graph, v) for v in self.ids]
        inner, mirrors = fragment.inner_border, fragment.mirrors
        self.border = [v in inner or v in mirrors for v in self.ids]
        self.border_slots = list(compress(range(len(self.ids)), self.border))

    def _row(self, graph: Graph, v: VertexId) -> list:
        if not graph.has_vertex(v):
            return []
        index = self.index
        return [(index[u], w) for u, w in graph.store.out_items(v)]

    def refresh(self, fragment: "Fragment", vertices) -> None:
        """Re-read the rows and border flags of ``vertices`` after
        ``fragment`` changed them, giving a newcomer the next slot."""
        graph = fragment.graph
        index = self.index
        inner, mirrors = fragment.inner_border, fragment.mirrors
        for v in vertices:
            s = index.get(v)
            if s is None:
                if not graph.has_vertex(v):
                    continue
                s = index[v] = len(self.ids)
                self.ids.append(v)
                self.out.append([])
                self.border.append(False)
            self.out[s] = self._row(graph, v)
            flagged = v in inner or v in mirrors
            if flagged and not self.border[s] and s not in self.border_slots:
                self.border_slots.append(s)
            self.border[s] = flagged


@dataclass
class Fragment:
    """One worker's fraction of the graph.

    Attributes:
        fid: fragment (worker) index in ``[0, n)``.
        graph: local subgraph — owned vertices, their out-edges, and
            mirror endpoints of cross edges.
        owned: vertex ids owned by this fragment.
        mirrors: vertex id -> owning fragment, for local mirror copies.
        inner_border: owned vertices that appear as mirrors elsewhere.
    """

    fid: int
    graph: Graph
    owned: set[VertexId]
    mirrors: dict[VertexId, int]
    inner_border: set[VertexId] = field(default_factory=set)

    @property
    def border(self) -> set[VertexId]:
        """All vertices carrying update parameters (``F_i.I ∪ F_i.O``)."""
        return self.inner_border | set(self.mirrors)

    def owns(self, v: VertexId) -> bool:
        """Whether this fragment owns ``v``."""
        return v in self.owned

    def slot_view(self) -> SlotView:
        """The fragment's :class:`SlotView`, built on first use and kept
        in step with ΔG by :func:`apply_fragment_effects` from then on."""
        view = self.__dict__.get("_slot_view")
        if view is None:
            view = self._slot_view = SlotView(self)
        return view

    def __getstate__(self) -> dict:
        # the view is derived state: a pickled copy rebuilds its own
        state = self.__dict__.copy()
        state.pop("_slot_view", None)
        return state

    def __repr__(self) -> str:
        return (
            f"<Fragment {self.fid} owned={len(self.owned)} "
            f"mirrors={len(self.mirrors)} border={len(self.border)}>"
        )


class FragmentedGraph:
    """The fragments of one graph plus global routing metadata."""

    def __init__(
        self,
        fragments: Sequence[Fragment],
        assignment: Mapping[VertexId, int],
        strategy: str = "unknown",
    ) -> None:
        self.fragments = list(fragments)
        self.assignment = dict(assignment)
        self.strategy = strategy
        #: vertex -> the fids hosting a copy, where the engine sends a
        #: changed parameter (:class:`Routes`)
        self.routes = routes = Routes(self)
        for frag in self.fragments:
            for v in chain(frag.owned, frag.mirrors):
                routes.setdefault(v, set()).add(frag.fid)

    @property
    def num_fragments(self) -> int:
        """Number of fragments (= workers)."""
        return len(self.fragments)

    @property
    def store_kind(self) -> str:
        """Backing store of the fragment graphs ("dict", "csr", ...)."""
        return (
            self.fragments[0].graph.store_kind if self.fragments else "dict"
        )

    def compact(self) -> int:
        """Fold every fragment's storage overlay; returns fragments run.

        Coordinator-side only: process-backend worker copies compact on
        their own mutation thresholds (compaction is semantically
        invisible, so the two sides never diverge).
        """
        return sum(1 for f in self.fragments if f.graph.compact())

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.assignment)

    def owner_of(self, v: VertexId) -> int:
        """Fragment id owning vertex ``v``."""
        try:
            return self.assignment[v]
        except KeyError:
            raise PartitionError(f"vertex {v} not in any fragment") from None

    def fragment_of(self, v: VertexId) -> Fragment:
        """The fragment owning vertex ``v``."""
        return self.fragments[self.owner_of(v)]

    # ------------------------------------------------------------------
    # Delta application (ΔG): one edge at a time, with border/mirror
    # bookkeeping for removals as well as additions. The batch-level
    # entry point is :func:`repro.core.delta.apply_delta`.
    #
    # Every mutator appends the per-fragment effects it applied to the
    # caller's ``effects`` (fid -> effect records), when one is passed;
    # the process backend replays those records on its workers' fragment
    # copies through the same :func:`apply_fragment_effects` interpreter.
    # ------------------------------------------------------------------
    def _effect(
        self, effects: dict[int, list] | None, fid: int, *record: object
    ) -> None:
        """Apply one effect to ``fid``'s fragment and log it."""
        rec = tuple(record)
        apply_fragment_effects(self.fragments[fid], [rec])
        if effects is not None:
            effects.setdefault(fid, []).append(rec)

    def insert_edge(
        self,
        src: VertexId,
        dst: VertexId,
        weight: float = 1.0,
        label: str | None = None,
        effects: dict[int, list] | None = None,
    ) -> list[int]:
        """Insert one edge; returns the fragment ids that must repair.

        The edge lands in its source-owner's local graph; a cross-fragment
        edge creates/extends the mirror of the target and marks the target
        as inner border at its owner (which is therefore also touched —
        programs with undirected semantics must export the target's value
        back across the new edge). Undirected graphs mirror symmetrically.
        """
        src_fid = self.owner_of(src)
        dst_fid = self.owner_of(dst)
        src_frag = self.fragments[src_fid]
        dst_frag = self.fragments[dst_fid]
        directed = src_frag.graph.directed

        if not src_frag.graph.has_vertex(dst):
            self._effect(
                effects,
                src_fid,
                "add_vertex",
                dst,
                dst_frag.graph.vertex_label(dst),
                dict(dst_frag.graph.vertex_props(dst)),
            )
        self._effect(effects, src_fid, "add_edge", src, dst, weight, label)
        touched = [src_fid]
        if dst_fid != src_fid:
            self._effect(effects, src_fid, "set_mirror", dst, dst_fid)
            self._effect(effects, dst_fid, "add_inner_border", dst)
            self.routes[dst].add(src_fid)
            touched.append(dst_fid)
            if not directed:
                if not dst_frag.graph.has_vertex(src):
                    self._effect(
                        effects,
                        dst_fid,
                        "add_vertex",
                        src,
                        src_frag.graph.vertex_label(src),
                        dict(src_frag.graph.vertex_props(src)),
                    )
                self._effect(
                    effects, dst_fid, "add_edge", dst, src, weight, label
                )
                self._effect(effects, dst_fid, "set_mirror", src, src_fid)
                self._effect(effects, src_fid, "add_inner_border", src)
                self.routes[src].add(dst_fid)
        return touched

    def delete_edge(
        self,
        src: VertexId,
        dst: VertexId,
        effects: dict[int, list] | None = None,
    ) -> list[int]:
        """Remove one edge; returns the fragment ids that must repair.

        The inverse of :meth:`insert_edge`: the edge leaves the
        source-owner's local graph; when the removal strands a mirror
        (no local edge references it anymore) the mirror copy is dropped,
        its route shrinks, and the owner's ``inner_border`` entry is
        retired once *no* fragment mirrors the vertex. The target's owner
        is always touched — in a directed graph the target's value may
        have depended on the deleted edge even though its own fragment
        never stored it.
        """
        src_fid = self.owner_of(src)
        dst_fid = self.owner_of(dst)
        src_frag = self.fragments[src_fid]
        dst_frag = self.fragments[dst_fid]
        directed = src_frag.graph.directed

        if not src_frag.graph.has_edge(src, dst):
            # Match Graph.remove_edge's error without logging any effect.
            src_frag.graph.remove_edge(src, dst)
        self._effect(effects, src_fid, "remove_edge", src, dst)
        touched = [src_fid]
        if dst_fid != src_fid:
            touched.append(dst_fid)
            self._prune_mirror(effects, src_frag, dst)
            if not directed:
                self._effect(effects, dst_fid, "remove_edge", dst, src)
                self._prune_mirror(effects, dst_frag, src)
        return touched

    def reweight_edge(
        self,
        src: VertexId,
        dst: VertexId,
        weight: float,
        effects: dict[int, list] | None = None,
    ) -> tuple[list[int], float]:
        """Change one edge's weight; returns (touched fids, old weight).

        No border bookkeeping changes — the edge's endpoints keep their
        copies — but the target's owner is still touched so non-monotone
        repair can invalidate values that depended on the old weight.
        """
        src_fid = self.owner_of(src)
        dst_fid = self.owner_of(dst)
        src_frag = self.fragments[src_fid]
        dst_frag = self.fragments[dst_fid]
        directed = src_frag.graph.directed

        old = src_frag.graph.edge_weight(src, dst)  # GraphError if absent
        label = src_frag.graph.edge_label(src, dst)
        self._effect(effects, src_fid, "add_edge", src, dst, weight, label)
        touched = [src_fid]
        if dst_fid != src_fid:
            touched.append(dst_fid)
            if not directed:
                self._effect(
                    effects, dst_fid, "add_edge", dst, src, weight, label
                )
        return touched, old

    def _prune_mirror(
        self, effects: dict[int, list], frag: Fragment, v: VertexId
    ) -> None:
        """Drop ``frag``'s mirror of ``v`` if no local edge references it."""
        if v not in frag.mirrors:
            return
        g = frag.graph
        if v in g and (g.out_degree(v) or g.in_degree(v)):
            return  # still referenced by another local edge
        owner = frag.mirrors[v]
        self._effect(effects, frag.fid, "drop_mirror", v)
        if v in g:
            self._effect(effects, frag.fid, "remove_vertex", v)
        self.routes[v].discard(frag.fid)
        if not any(v in f.mirrors for f in self.fragments):
            self._effect(effects, owner, "discard_inner_border", v)

    def __repr__(self) -> str:
        return (
            f"<FragmentedGraph n={self.num_fragments} "
            f"strategy={self.strategy!r}>"
        )


def expand_fragments(
    graph: Graph,
    fragmented: FragmentedGraph,
    radius: int,
    store: str | GraphStore | None = None,
) -> FragmentedGraph:
    """d-hop replication: grow each fragment's local graph by ``radius``.

    Locality-bounded queries (subgraph isomorphism, ego-pattern GPARs)
    need every match whose pivot is owned to be fully visible locally.
    Expanding each fragment with the induced subgraph over all vertices
    within ``radius`` undirected hops of its owned set makes PEval exact
    with no IncEval rounds — the strategy GRAPE uses for SubIso. The
    replication cost (extra vertices per fragment) is the space/comm
    trade-off the caller should meter at load time.

    ``store`` overrides the fragment storage backend; by default the
    expanded fragments inherit the parent graph's store (``subgraph``
    preserves it).
    """
    proto = make_store(store) if store is not None else None
    expanded: list[Fragment] = []
    for frag in fragmented.fragments:
        keep = set(frag.owned)
        frontier = set(frag.owned)
        for _ in range(radius):
            nxt: set[VertexId] = set()
            for v in frontier:
                for u in graph.neighbors(v):
                    if u not in keep:
                        nxt.add(u)
            keep |= nxt
            frontier = nxt
            if not frontier:
                break
        local = graph.subgraph(keep)
        if proto is not None and local.store_kind != proto.kind:
            local = local.with_store(proto.fresh())
        mirrors = {
            v: fragmented.owner_of(v) for v in keep if v not in frag.owned
        }
        expanded.append(
            Fragment(
                fid=frag.fid,
                graph=local,
                owned=set(frag.owned),
                mirrors=mirrors,
                inner_border=set(frag.inner_border),
            )
        )
    return FragmentedGraph(
        expanded,
        fragmented.assignment,
        strategy=f"{fragmented.strategy}+expand{radius}",
    )


def build_fragments(
    graph: Graph,
    assignment: Mapping[VertexId, int],
    num_fragments: int,
    strategy: str = "unknown",
    store: str | GraphStore | None = None,
) -> FragmentedGraph:
    """Materialize edge-cut fragments from a vertex -> fragment map.

    ``assignment`` must map exactly the vertices of ``graph`` to fragment
    ids in ``[0, num_fragments)``. Fragment ``i`` receives its owned
    vertices (with labels/properties), all out-edges of owned vertices,
    and mirror copies (with labels/properties, so pattern matching can
    inspect them) of cross-edge targets — gathered in one pass over the
    graph's adjacency and bulk-loaded straight into each store's base
    layout (:meth:`Graph.bulk_load`); no fragment is built arc by arc.

    ``store`` selects the fragment storage backend (name or prototype
    instance; every fragment gets its own fresh store). By default
    fragments inherit the parent graph's store, so a CSR-backed input
    yields CSR-backed fragments with no extra plumbing.
    """
    if num_fragments < 1:
        raise PartitionError("need at least one fragment")
    source = graph.store
    n = num_fragments
    vids: list[list[VertexId]] = [[] for _ in range(n)]
    owned: list[set[VertexId]] = [set() for _ in range(n)]
    mirrors: list[dict[VertexId, int]] = [{} for _ in range(n)]
    inner_border: list[set[VertexId]] = [set() for _ in range(n)]
    # per-fragment edge columns for Graph.bulk_load: src, dst, weight, label
    columns = [([], [], [], {}) for _ in range(n)]

    for v in source.vertices():
        fid = assignment.get(v)
        if fid is None:
            raise PartitionError(f"vertex {v} is unassigned")
        if not 0 <= fid < n:
            raise PartitionError(f"vertex {v} assigned to invalid {fid}")
        owned[fid].add(v)
        vids[fid].append(v)
    if len(assignment) != source.num_vertices():
        stray = next(v for v in assignment if not source.has_vertex(v))
        raise PartitionError(f"assigned vertex {stray} is not in the graph")

    # An undirected edge is stored at both ends but handed over once, by
    # the endpoint Graph.edges() reports it from.
    rank = None if graph.directed else {v: repr(v) for v in assignment}
    for src in source.vertices():
        fid = assignment[src]
        srcs, dsts, weights, labels = columns[fid]
        known = mirrors[fid]
        for dst, w, label in source.out_items_labeled(src):
            if rank is not None and rank[dst] < rank[src]:
                continue
            srcs.append(src)
            dsts.append(dst)
            weights.append(w)
            if label is not None:
                labels[(src, dst)] = label
            dst_fid = assignment[dst]
            if dst_fid == fid:
                continue
            known[dst] = dst_fid
            inner_border[dst_fid].add(dst)
            if rank is not None:
                # ... and owned by both endpoints' fragments.
                back = columns[dst_fid]
                back[0].append(dst)
                back[1].append(src)
                back[2].append(w)
                if label is not None:
                    back[3][(dst, src)] = label
                mirrors[dst_fid][src] = fid
                inner_border[fid].add(src)

    proto = make_store(store) if store is not None else source
    fragments = []
    for fid in range(n):
        # owned vertices first, then mirrors in first-reference order
        local_vids = vids[fid] + list(mirrors[fid])
        local = Graph(directed=graph.directed, store=proto.fresh())
        local.bulk_load(
            local_vids,
            [source.vertex_label(v) for v in local_vids],
            {v: dict(p) for v in local_vids if (p := source.vertex_props(v))},
            *columns[fid],
        )
        vids[fid] = columns[fid] = None  # release before the next build
        fragments.append(
            Fragment(fid, local, owned[fid], mirrors[fid], inner_border[fid])
        )
    return FragmentedGraph(fragments, assignment, strategy=strategy)
