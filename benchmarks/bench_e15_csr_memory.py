"""E15 — fragment storage footprint: dict store vs CSR store.

The CSR tentpole claim: columnar adjacency (``array``-backed index +
edge columns) holds a fragmented graph in far fewer resident bytes than
the nested-dict store, at equal observable behavior. This bench builds
the same fragmentation over both stores on a road grid and a uniform
random digraph (>= 1e5 directed edges each), deep-measures the resident
bytes of every fragment's store, times an SSSP run on each, and then
drives a ΔG batch through a small-threshold CSR fragmentation so
overlay compaction fires mid-run — asserting the compacted answer stays
byte-identical to the dict oracle.

Results land in ``benchmarks/results/e15_csr_memory.json`` (cited by
EXPERIMENTS.md) plus the usual paper-style text table.

Acceptance gate: CSR must spend at most half the bytes per edge of the
dict store on every graph here.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from benchmarks.helpers import RESULTS_DIR, format_rows, write_result
from repro.core.delta import GraphDelta
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.csr import CSRStore
from repro.graph.fragment import build_fragments
from repro.graph.generators import random_weighted_digraph, road_network
from repro.partition.registry import get_partitioner
from repro.runtime.costmodel import CostModel
from repro.core.engine import GrapeEngine
from repro.runtime.backends import make_backend
from repro.service.service import canonical_answer_bytes

NUM_WORKERS = 4

#: name -> zero-arg graph builder (>= 1e5 directed edges each).
GRAPHS = {
    "road:160x160": lambda store=None: road_network(160, 160, store=store),
    "random:25k:150k": lambda store=None: random_weighted_digraph(
        25_000, 150_000, store=store
    ),
}


def _deep_bytes(root: object) -> int:
    """Resident bytes of ``root`` and everything it references.

    ``sys.getsizeof`` over the reachable object graph via
    ``gc.get_referents`` — no psutil, no interpreter tricks. Classes,
    modules and functions are shared with the rest of the process and
    are not charged to the store.
    """
    seen: set[int] = set()
    stack = [root]
    total = 0
    skip = (type, type(sys), type(_deep_bytes))
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def _fragment_store_bytes(fragmented) -> int:
    return sum(_deep_bytes(f.graph.store) for f in fragmented.fragments)


def _stored_edges(fragmented) -> int:
    return sum(f.graph.num_edges for f in fragmented.fragments)


def _build(graph_fn, store):
    graph = graph_fn(store=None)  # partition over the dict master copy
    assignment = get_partitioner("hash")(graph, NUM_WORKERS)
    return graph, build_fragments(
        graph, assignment, NUM_WORKERS, strategy="hash", store=store
    )


def _timed_sssp(fragmented) -> tuple[float, bytes]:
    backend = make_backend("simulated", fragmented, deterministic=True)
    engine = GrapeEngine(
        fragmented, cost_model=CostModel(deterministic=True), backend=backend
    )
    program = get_program("sssp")
    query = build_query("sssp", source=0)
    t0 = time.perf_counter()
    result = engine.run(program, query)
    elapsed = time.perf_counter() - t0
    return elapsed, canonical_answer_bytes(result.answer)


def _compaction_run(graph_fn) -> dict:
    """ΔG batch over a tiny-threshold CSR fleet vs the dict oracle."""

    def _sequence(store):
        graph, fragmented = _build(graph_fn, store)
        backend = make_backend("simulated", fragmented, deterministic=True)
        engine = GrapeEngine(
            fragmented,
            cost_model=CostModel(deterministic=True),
            backend=backend,
        )
        program = get_program("sssp")
        query = build_query("sssp", source=0)
        cold = engine.run(program, query, keep_state=True)
        edges = [(e.src, e.dst) for e in graph.edges()][:40]
        delta = GraphDelta.from_dict(
            {
                "delete": [list(e) for e in edges[:20]],
                "reweight": [[s, d, 1.25] for s, d in edges[20:40]],
            }
        )
        inc = engine.run_incremental(program, query, cold.state, delta)
        return fragmented, canonical_answer_bytes(inc.answer)

    oracle_frags, oracle = _sequence(None)
    # The 20 deletes land 4-6 per fragment and the build itself no
    # longer compacts, so the threshold sits under the smallest share.
    csr_frags, compacted = _sequence(CSRStore(compact_threshold=4))
    compactions = sum(
        f.graph.store.compactions for f in csr_frags.fragments
    )
    assert compactions > 0, "ΔG batch never triggered overlay compaction"
    assert compacted == oracle, "compacted CSR diverged from dict oracle"
    return {"compactions": compactions, "byte_stable": True}


def test_e15_csr_memory():
    record: dict = {"num_workers": NUM_WORKERS, "graphs": {}}
    rows = []
    for name, graph_fn in GRAPHS.items():
        _, dict_frags = _build(graph_fn, None)
        _, csr_frags = _build(graph_fn, "csr")
        edges = _stored_edges(dict_frags)
        assert edges >= 100_000, f"{name}: only {edges} stored edges"
        assert _stored_edges(csr_frags) == edges

        dict_bytes = _fragment_store_bytes(dict_frags)
        csr_bytes = _fragment_store_bytes(csr_frags)
        dict_bpe = dict_bytes / edges
        csr_bpe = csr_bytes / edges
        ratio = dict_bpe / csr_bpe
        # The acceptance gate: at least 2x fewer resident bytes/edge.
        assert ratio >= 2.0, (
            f"{name}: CSR only {ratio:.2f}x smaller "
            f"({csr_bpe:.1f} vs {dict_bpe:.1f} B/edge)"
        )

        dict_time, dict_answer = _timed_sssp(dict_frags)
        csr_time, csr_answer = _timed_sssp(csr_frags)
        assert dict_answer == csr_answer, f"{name}: answers diverged"

        record["graphs"][name] = {
            "stored_edges": edges,
            "dict_bytes": dict_bytes,
            "csr_bytes": csr_bytes,
            "dict_bytes_per_edge": round(dict_bpe, 2),
            "csr_bytes_per_edge": round(csr_bpe, 2),
            "memory_ratio": round(ratio, 2),
            "dict_sssp_s": round(dict_time, 4),
            "csr_sssp_s": round(csr_time, 4),
        }
        rows.append(
            [
                name,
                edges,
                f"{dict_bpe:.1f}",
                f"{csr_bpe:.1f}",
                f"{ratio:.2f}x",
                f"{dict_time * 1000:.0f}",
                f"{csr_time * 1000:.0f}",
            ]
        )

    record["compaction"] = _compaction_run(GRAPHS["road:160x160"])

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e15_csr_memory.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    write_result(
        "E15_csr_memory",
        "E15 fragment storage: dict vs CSR "
        f"({NUM_WORKERS} workers, hash partition)\n"
        + format_rows(
            [
                "graph",
                "edges",
                "dict B/edge",
                "csr B/edge",
                "ratio",
                "dict ms",
                "csr ms",
            ],
            rows,
        )
        + "\ncompaction: "
        + json.dumps(record["compaction"]),
    )
