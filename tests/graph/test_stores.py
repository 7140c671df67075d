"""Unit tests for the GraphStore seam: dict/CSR equivalence, overlay
compaction, pickle narrowing, store construction errors, and the
bulk-load primitive and the one-pass ``build_fragments`` against the
arc-at-a-time constructions they replaced."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRStore
from repro.graph.digraph import Graph
from repro.graph.fragment import Fragment, FragmentedGraph, build_fragments
from repro.graph.generators import graph_from_spec
from repro.graph.store import STORES, DictStore, make_store
from repro.partition.registry import get_partitioner

GRAPH_SPEC = "road:8x8"
NUM_WORKERS = 3


def _snapshot(g: Graph):
    """Every observable facet of a graph, in iteration order."""
    vs = list(g.vertices())
    return {
        "vertices": vs,
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "labels": [g.vertex_label(v) for v in vs],
        "props": [g.vertex_props(v) for v in vs],
        "out": {v: g.out_edges(v) for v in vs},
        "in": {v: g.in_edges(v) for v in vs},
        "neigh": {v: g.neighbors(v) for v in vs},
        "deg": {v: (g.out_degree(v), g.in_degree(v)) for v in vs},
        "edges": list(g.edges()),
    }


def _mutate(g: Graph, rng: random.Random, directed: bool, steps=250):
    """A deterministic mutation exercise applied identically to stores."""
    for step in range(steps):
        roll = rng.random()
        u, v = rng.randrange(12), rng.randrange(12)
        if not directed and u == v:
            continue  # pre-existing undirected self-loop quirk
        if roll < 0.35:
            g.add_edge(u, v, round(rng.uniform(0.5, 9.0), 2),
                       label=rng.choice([None, "road", "rail"]))
        elif roll < 0.55 and g.has_edge(u, v):
            g.remove_edge(u, v)
        elif roll < 0.7:
            g.add_vertex(u, label=rng.choice([None, "hub"]))
        elif roll < 0.8 and u in g and not (
            not directed and g.has_edge(u, u)
        ):
            g.remove_vertex(u)
        elif roll < 0.9 and g.has_edge(u, v):
            g.add_edge(u, v, round(rng.uniform(0.5, 9.0), 2))  # reweight
        elif u in g:
            g.add_vertex(u, visits=step)  # prop update on re-add


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_csr_matches_dict_under_random_mutation(directed, seed):
    rng_a, rng_b = random.Random(seed), random.Random(seed)
    a = Graph(directed=directed)  # dict store
    b = Graph(directed=directed, store="csr")
    _mutate(a, rng_a, directed)
    _mutate(b, rng_b, directed)
    assert _snapshot(a) == _snapshot(b)
    # Pickling a dirty overlay, compacting, and re-deriving all keep
    # every observable identical.
    assert _snapshot(pickle.loads(pickle.dumps(b))) == _snapshot(a)
    assert b.compact()
    assert _snapshot(b) == _snapshot(a)
    # Derivations rebuild in out-edge order (which reorders in-lists the
    # same way on every store), so compare derivation to derivation.
    assert _snapshot(b.copy()) == _snapshot(a.copy())
    assert _snapshot(b.reversed()) == _snapshot(a.reversed())


def test_auto_compaction_threshold_fires():
    g = Graph(store=CSRStore(compact_threshold=5))
    for v in range(8):
        g.add_vertex(v)
    for v in range(7):
        g.add_edge(v, v + 1)
    before = g.store.compactions
    for v in range(6):
        g.remove_edge(v, v + 1)  # overlay ops accumulate past threshold
    assert g.store.compactions > before
    assert g.num_edges == 1 and g.has_edge(6, 7)


def test_pickle_narrowing_shrinks_small_graphs():
    g = Graph(store="csr")
    for v in range(200):
        g.add_vertex(v)
    for v in range(199):
        g.add_edge(v, v + 1, 1.0)
    g.compact()
    payload = pickle.dumps(g, protocol=pickle.HIGHEST_PROTOCOL)
    # 199 edges in two directions; adjacency slots fit in one byte each
    # ('B' narrowing), so the payload must stay well under the 8-byte
    # per-slot wide encoding (2 * 199 * 8 = 3184 for adjacency alone).
    wide_adjacency = 2 * 199 * 8
    assert len(payload) < wide_adjacency + 2 * 199 * 8  # weights stay 'd'
    h = pickle.loads(payload)
    assert _snapshot(h) == _snapshot(g)
    assert h.store_kind == "csr"


def test_store_kind_survives_copy_and_subgraph():
    g = Graph(store="csr")
    for v in range(6):
        g.add_vertex(v)
        if v:
            g.add_edge(v - 1, v)
    assert g.store_kind == "csr"
    assert g.copy().store_kind == "csr"
    assert g.subgraph([1, 2, 3]).store_kind == "csr"
    assert g.with_store("dict").store_kind == "dict"
    assert _snapshot(g.with_store("dict")) == _snapshot(g)


def test_make_store_accepts_names_instances_and_rejects_unknown():
    assert isinstance(make_store(None), DictStore)
    assert isinstance(make_store("dict"), DictStore)
    assert isinstance(make_store("csr"), CSRStore)
    proto = CSRStore(compact_threshold=9)
    assert make_store(proto) is proto
    assert set(STORES) == {"dict", "csr"}
    with pytest.raises(ValueError, match="unknown graph store"):
        make_store("btree")


def test_graph_errors_identical_across_stores():
    for store in (None, "csr"):
        g = Graph(store=store)
        g.add_vertex(0)
        g.add_vertex(1)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -2.0)
        with pytest.raises(GraphError):
            g.remove_edge(0, 1)
        with pytest.raises(GraphError):
            g.remove_vertex(99)


@pytest.mark.parametrize("directed", [True, False])
def test_self_loop_removal_agrees_across_stores(directed):
    # an undirected self-loop is one stored arc: deleting it twice raised
    # KeyError on the dict store and passed silently on CSR
    def build(store):
        g = Graph(directed=directed, store=store)
        g.add_edge(1, 1, 2.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(3, 3, 1.0)
        return g

    results = {}
    for store in ("dict", "csr"):
        g = build(store)
        g.remove_edge(1, 1)
        assert not g.has_edge(1, 1)
        with pytest.raises(GraphError):
            g.remove_edge(1, 1)
        g.remove_vertex(3)
        assert not g.has_vertex(3)
        results[store] = (
            sorted((e.src, e.dst, e.weight) for e in g.edges()),
            g.num_edges,
        )
    assert results["dict"] == results["csr"]
    assert results["dict"][1] == 1


# ----------------------------------------------------------------------
# Bulk load: the one-pass derivations vs. the add_vertex/add_edge loops
# they replaced (kept here, verbatim, as the oracle)
# ----------------------------------------------------------------------
SLOW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def labelled_graphs(draw):
    """Small graphs over dict x CSR, directed x undirected, with
    self-loops, vertex/edge labels, props and non-sorted vertex ids
    (``repr(10) < repr(9)``, which undirected edge reporting keys on)."""
    directed = draw(st.booleans())
    g = Graph(directed=directed, store=draw(st.sampled_from(["dict", "csr"])))
    pool = draw(st.permutations(list(range(7, 14)) + ["a", "b"]))
    vids = pool[: draw(st.integers(1, len(pool)))]
    for v in vids:
        props = draw(st.dictionaries(st.sampled_from(["k", "n"]),
                                     st.integers(0, 3), max_size=2))
        g.add_vertex(v, draw(st.sampled_from([None, "hub", "leaf"])), **props)
    pairs = st.tuples(st.sampled_from(vids), st.sampled_from(vids))
    for src, dst in draw(st.lists(pairs, max_size=30)):
        g.add_edge(
            src, dst,
            draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
            draw(st.sampled_from([None, "road", "rail"])),
        )
    return g


def _copy_vertices(src: Graph, dst: Graph, vertices) -> None:
    for v in vertices:
        dst.add_vertex(v, src.vertex_label(v), **src.vertex_props(v))


def _oracle_with_store(g: Graph, store) -> Graph:
    out = Graph(directed=g.directed, store=store)
    _copy_vertices(g, out, g.vertices())
    for src in g.vertices():
        for e in g.out_edges(src):
            if not g.directed and out.has_edge(src, e.dst):
                continue
            out.add_edge(src, e.dst, e.weight, e.label)
    return out


def _oracle_copy(g: Graph) -> Graph:
    return _oracle_with_store(g, g.store.fresh())


def _oracle_subgraph(g: Graph, vertices) -> Graph:
    keep = set(vertices)
    out = Graph(directed=g.directed, store=g.store.fresh())
    _copy_vertices(g, out, keep)
    for src in keep:
        for e in g.out_edges(src):
            if e.dst in keep:
                out.add_edge(src, e.dst, e.weight, e.label)
    return out


def _oracle_reversed(g: Graph) -> Graph:
    out = Graph(directed=g.directed, store=g.store.fresh())
    _copy_vertices(g, out, g.vertices())
    for src in g.vertices():
        for e in g.out_edges(src):
            out.add_edge(e.dst, src, e.weight, e.label)
    return out


def settled_pickle(g: Graph) -> bytes:
    """Pickle of ``g`` in its steady-state layout, the compaction count
    (the one field a one-pass build is *meant* to change) zeroed."""
    g.compact()
    if g.store_kind == "csr":
        g.store.compactions = 0
    return pickle.dumps(g)


def assert_same_graph(built: Graph, oracle: Graph) -> None:
    assert built.store_kind == oracle.store_kind
    assert _snapshot(built) == _snapshot(oracle)
    if built.store_kind == "csr":  # landed in the base layout directly
        assert built.store.compactions == 0 and not built.store.dirty()
    if oracle.num_edges:  # an arc-less CSR oracle never gets base rows
        assert settled_pickle(built) == settled_pickle(oracle)


@SLOW
@given(labelled_graphs(), st.data())
def test_derivations_match_arc_at_a_time_oracle(g, data):
    assert_same_graph(g.copy(), _oracle_copy(g))
    assert_same_graph(g.reversed(), _oracle_reversed(g))
    for kind in ("dict", "csr"):
        assert_same_graph(g.with_store(kind), _oracle_with_store(g, kind))
    chosen = data.draw(st.lists(st.sampled_from(list(g.vertices()))))
    assert_same_graph(g.subgraph(chosen), _oracle_subgraph(g, chosen))


def _columns_by_items(g: Graph) -> tuple:
    position = {v: i for i, v in enumerate(g.store.vertices())}
    indptr, adj, w = [0], [], []
    for v in position:
        for dst, weight in g.store.out_items(v):
            adj.append(position[dst])
            w.append(weight)
        indptr.append(len(adj))
    return indptr, adj, w


def assert_columns_read_as_items(g: Graph) -> None:
    indptr, adj, w = g.store.out_columns()
    want = _columns_by_items(g)
    assert (list(indptr), list(adj)) == want[:2]
    assert repr(list(w)) == repr(want[2])  # weight types too


@SLOW
@given(labelled_graphs(), st.data())
def test_out_columns_read_as_out_items(g, data):
    """Clean, overlaid, dead-slot and compacted stores alike."""
    assert_columns_read_as_items(g)
    assert_columns_read_as_items(g.copy())  # one-pass build: clean base
    vertices = list(g.vertices())
    for e in data.draw(st.lists(st.sampled_from(list(g.edges()) or [None]),
                                max_size=4)):
        if e is not None and e.src != e.dst and g.has_edge(e.src, e.dst):
            g.remove_edge(e.src, e.dst)
    gone = data.draw(st.sampled_from(vertices))
    if g.directed or not g.has_edge(gone, gone):
        g.remove_vertex(gone)
        g.add_edge(vertices[0], gone, 3)  # re-added, an int weight kept
    assert_columns_read_as_items(g)
    g.compact()
    assert_columns_read_as_items(g)


def _columns():
    """A valid two-vertex, one-arc bulk load (each test breaks one part)."""
    return dict(vids=[0, 1], vlabels=[None, "hub"], vprops={1: {"k": 2}},
                srcs=[0], dsts=[1], weights=[2.0], labels={(0, 1): "road"})


@pytest.mark.parametrize("store", ["dict", "csr"])
@pytest.mark.parametrize("directed", [True, False])
def test_bulk_load_builds_and_guards(store, directed):
    g = Graph(directed=directed, store=store)
    g.bulk_load(**_columns())
    oracle = Graph(directed=directed, store=store)
    oracle.add_vertex(0)
    oracle.add_vertex(1, "hub", k=2)
    oracle.add_edge(0, 1, 2.0, "road")
    assert_same_graph(g, oracle)

    def rejects(**change):
        with pytest.raises(GraphError):
            Graph(directed=directed, store=store).bulk_load(
                **{**_columns(), **change}
            )

    with pytest.raises(GraphError, match="empty"):
        g.bulk_load(**_columns())  # legal on an empty store only
    rejects(dsts=[5])  # endpoint not among the vertex rows
    rejects(srcs=[5])
    rejects(weights=[-1.0])
    rejects(weights=[float("nan")])
    # min() of [nan, -1.0] is nan, which is not < 0: every weight is read
    with pytest.raises(GraphError, match="nan"):
        Graph(directed=directed, store=store).bulk_load(
            **{**_columns(), "vids": [0, 1, 2], "vlabels": [None] * 3,
               "srcs": [0, 1], "dsts": [1, 2],
               "weights": [float("nan"), -1.0]}
        )
    rejects(srcs=[0, 0], dsts=[1, 1], weights=[2.0, 3.0])  # repeated arc
    rejects(vids=[0, 1, 0], vlabels=[None, "hub", None])  # repeated vertex
    if not directed:  # the reverse arc of an undirected edge is a repeat
        rejects(srcs=[0, 1], dsts=[1, 0], weights=[2.0, 2.0])


# ----------------------------------------------------------------------
# One-pass build vs. the arc-at-a-time oracle
# ----------------------------------------------------------------------
def _oracle_build_fragments(graph, assignment, num_fragments, store=None):
    """``build_fragments`` as it was before the bulk-load primitive:
    every vertex and arc through the ``Graph`` facade, then a compaction."""
    proto = make_store(store) if store is not None else graph.store
    locals_ = [
        Graph(directed=graph.directed, store=proto.fresh())
        for _ in range(num_fragments)
    ]
    owned = [set() for _ in range(num_fragments)]
    mirrors = [{} for _ in range(num_fragments)]
    inner_border = [set() for _ in range(num_fragments)]

    def ensure(local, v):
        if not local.has_vertex(v):
            local.add_vertex(v, graph.vertex_label(v), **graph.vertex_props(v))

    for v in graph.vertices():
        owned[assignment[v]].add(v)
        ensure(locals_[assignment[v]], v)
    for edge in graph.edges():
        src_fid, dst_fid = assignment[edge.src], assignment[edge.dst]
        local = locals_[src_fid]
        ensure(local, edge.dst)
        local.add_edge(edge.src, edge.dst, edge.weight, edge.label)
        if dst_fid != src_fid:
            mirrors[src_fid][edge.dst] = dst_fid
            inner_border[dst_fid].add(edge.dst)
            if not graph.directed:
                local_dst = locals_[dst_fid]
                ensure(local_dst, edge.src)
                local_dst.add_edge(edge.dst, edge.src, edge.weight, edge.label)
                mirrors[dst_fid][edge.src] = src_fid
                inner_border[src_fid].add(edge.src)
    for local in locals_:
        local.compact()
    return FragmentedGraph(
        [
            Fragment(i, locals_[i], owned[i], mirrors[i], inner_border[i])
            for i in range(num_fragments)
        ],
        assignment,
    )


@SLOW
@given(
    labelled_graphs(),
    st.integers(1, 4),
    st.sampled_from(["hash", "bfs", "multilevel"]),
    st.sampled_from([None, "dict", "csr"]),
)
def test_one_pass_build_matches_oracle(g, parts, strategy, store):
    assignment = get_partitioner(strategy)(g, parts)
    built = build_fragments(g, assignment, parts, store=store)
    oracle = _oracle_build_fragments(g, assignment, parts, store=store)
    assert built.known_by == oracle.known_by
    for new, old in zip(built.fragments, oracle.fragments, strict=True):
        assert_same_graph(new.graph, old.graph)
        assert list(new.mirrors.items()) == list(old.mirrors.items())
        assert (new.owned, new.inner_border) == (old.owned, old.inner_border)
        if old.graph.num_edges:  # both graphs were settled just above
            assert pickle.dumps(new) == pickle.dumps(old)


def test_csr_build_never_touches_the_overlay(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the ΔG overlay ran during construction")

    monkeypatch.setattr(CSRStore, "_maybe_compact", forbidden)
    monkeypatch.setattr(CSRStore, "_base_find", forbidden)
    graph = graph_from_spec(GRAPH_SPEC)
    assignment = get_partitioner("multilevel")(graph, NUM_WORKERS)
    fragmented = build_fragments(graph, assignment, NUM_WORKERS, store="csr")
    for frag in fragmented.fragments:
        store = frag.graph.store
        assert store.compactions == 0 and not store.dirty()
        assert store.overlay_ops == 0


def test_tiny_threshold_builds_clean_and_first_delta_still_compacts():
    # compact_threshold is the ΔG side-log size and nothing else: a
    # 3-op threshold must not fire during construction, and must fire
    # on the first batch after it.
    graph = graph_from_spec(GRAPH_SPEC)
    assignment = get_partitioner("hash")(graph, NUM_WORKERS)
    fragmented = build_fragments(
        graph, assignment, NUM_WORKERS, store=CSRStore(compact_threshold=3)
    )
    stores = [f.graph.store for f in fragmented.fragments]
    assert all(s.compact_threshold == 3 for s in stores)
    assert all(s.compactions == 0 and not s.dirty() for s in stores)
    edges = [(e.src, e.dst) for e in graph.edges()][:12]
    for src, dst in edges:
        fragmented.delete_edge(src, dst)
    assert sum(s.compactions for s in stores) > 0
