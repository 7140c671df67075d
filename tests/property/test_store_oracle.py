"""Oracle equivalence: CSR fragments must be byte-identical to dict ones.

4 programs (SSSP/BFS/CC/kcore) x seeded-random ΔG batches x 2 partition
strategies; for every case the cold run and each incremental repair must
produce byte-identical canonical answers, identical deterministic
metrics, and identical repair statistics with ``store="csr"`` fragments
as with the default dict store — the storage seam may never leak into
observable behavior. A tiny compaction threshold is exercised too, so
overlay folding happens mid-sequence, and the process backend is run on
CSR fragments to cover the pickled-fragment path.

The one-pass ``build_fragments`` is held to the same standard against
the arc-at-a-time construction it replaced, which lives on below as
``_oracle_build_fragments``.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.delta import GraphDelta
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.csr import CSRStore
from repro.graph.digraph import Graph
from repro.graph.fragment import Fragment, FragmentedGraph, build_fragments
from repro.graph.generators import graph_from_spec
from repro.graph.store import make_store
from repro.partition.registry import get_partitioner
from repro.runtime.backends import make_backend
from repro.runtime.costmodel import CostModel
from repro.service.service import canonical_answer_bytes
from tests.graph.test_stores import SLOW, assert_same_graph, labelled_graphs

GRAPH_SPEC = "road:8x8"
NUM_WORKERS = 3
BATCHES = 2

CASES = [
    ("sssp", {"source": 0}),
    ("bfs", {"source": 0}),
    ("cc", {}),
    ("kcore", {}),
]
STRATEGIES = ["hash", "multilevel"]


def _random_delta(rng: random.Random, edges: set, vertices: list) -> dict:
    """One mixed ΔG batch over the live edge set (kept in sync)."""
    pool = sorted(edges)
    deletes = rng.sample(pool, min(2, len(pool)))
    remaining = [e for e in pool if e not in set(deletes)]
    reweights = [
        (src, dst, round(rng.uniform(0.5, 4.0), 2))
        for src, dst in rng.sample(remaining, min(2, len(remaining)))
    ]
    inserts = []
    while len(inserts) < 2:
        src, dst = rng.sample(vertices, 2)
        if (src, dst) not in edges and (src, dst) not in {
            (s, d) for s, d, _ in inserts
        }:
            inserts.append((src, dst, round(rng.uniform(0.5, 4.0), 2)))
    for e in deletes:
        edges.discard(e)
    for src, dst, _ in inserts:
        edges.add((src, dst))
    return {
        "insert": [list(op) for op in inserts],
        "delete": [list(op) for op in deletes],
        "reweight": [list(op) for op in reweights],
    }


def _deltas_for(name: str, strategy: str) -> list[dict]:
    graph = graph_from_spec(GRAPH_SPEC)
    # str hash is salted per interpreter; derive a stable seed instead.
    rng = random.Random(sum(map(ord, name + ":" + strategy)))
    edges = {(e.src, e.dst) for e in graph.edges()}
    vertices = sorted(graph.vertices())
    return [_random_delta(rng, edges, vertices) for _ in range(BATCHES)]


def _run_sequence(store, backend_name, strategy, name, params, deltas):
    """Cold run + incremental batches with one store; returns the trail."""
    graph = graph_from_spec(GRAPH_SPEC)
    assignment = get_partitioner(strategy)(graph, NUM_WORKERS)
    fragmented = build_fragments(
        graph, assignment, NUM_WORKERS, strategy, store=store
    )
    backend = make_backend(backend_name, fragmented, deterministic=True)
    engine = GrapeEngine(
        fragmented, cost_model=CostModel(deterministic=True), backend=backend
    )
    program = get_program(name)
    query = build_query(name, **params)
    trail = []
    try:
        result = engine.run(program, query, keep_state=True)
        trail.append(
            ("cold", canonical_answer_bytes(result.answer),
             result.metrics.as_dict())
        )
        state = result.state
        for spec in deltas:
            inc = engine.run_incremental(
                program, query, state, GraphDelta.from_dict(spec)
            )
            state = inc.state
            trail.append(
                (
                    "inc",
                    canonical_answer_bytes(inc.answer),
                    inc.metrics.as_dict(),
                    inc.repair.as_dict(),
                )
            )
    finally:
        backend.close()
    return fragmented, trail


def _assert_trails_equal(tag, oracle, subject):
    assert len(oracle) == len(subject) == 1 + BATCHES
    for step, (want, got) in enumerate(zip(oracle, subject)):
        assert want == got, f"{tag} diverged at step {step}"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name,params", CASES)
def test_csr_store_matches_dict_oracle(name, params, strategy):
    deltas = _deltas_for(name, strategy)
    _, oracle = _run_sequence(
        None, "simulated", strategy, name, params, deltas
    )
    fragmented, subject = _run_sequence(
        "csr", "simulated", strategy, name, params, deltas
    )
    assert fragmented.store_kind == "csr"
    _assert_trails_equal(f"{name}/{strategy}/csr", oracle, subject)


@pytest.mark.parametrize("name,params", [("sssp", {"source": 0}), ("cc", {})])
def test_csr_with_forced_compaction_matches_oracle(name, params):
    # A threshold this small folds the overlay into the base CSR during
    # the incremental sequence; compaction must be invisible.
    deltas = _deltas_for(name, "hash")
    _, oracle = _run_sequence(None, "simulated", "hash", name, params, deltas)
    proto = CSRStore(compact_threshold=3)
    fragmented, subject = _run_sequence(
        proto, "simulated", "hash", name, params, deltas
    )
    _assert_trails_equal(f"{name}/compacting-csr", oracle, subject)
    assert sum(f.graph.store.compactions for f in fragmented.fragments) > 0


@pytest.mark.parametrize("name,params", [("sssp", {"source": 0}), ("cc", {})])
def test_csr_on_process_backend_matches_oracle(name, params):
    deltas = _deltas_for(name, "hash")
    _, oracle = _run_sequence(None, "simulated", "hash", name, params, deltas)
    _, subject = _run_sequence("csr", "process", "hash", name, params, deltas)
    _assert_trails_equal(f"{name}/process-csr", oracle, subject)


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
