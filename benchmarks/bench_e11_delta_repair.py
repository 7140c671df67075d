"""E11 — unified ΔG: incremental repair of mixed batches vs recompute.

Our extension experiment for the deletion-capable delta path: for each
incrementally-maintainable program (SSSP, BFS, CC, k-core) a kept fixed
point absorbs one mixed batch — insertions, deletions and weight
changes — through ``run_incremental``, which routes monotone-safe ops
through ordinary IncEval and the rest through the scoped non-monotone
repair (invalidate a region, reset its parameters, PEval-style repair,
resume the fixpoint).

Asserts the correctness claim (every repaired answer byte-identical to
a fresh full recomputation on the mutated graph) and the boundedness
claim in the paper's currency — settled-vertex *work*: programs whose
regions stay scoped (SSSP/BFS tight-edge regions) must settle strictly
fewer vertices than recomputation. CC and k-core use component-level
regions, which on one connected road grid cover everything — they take
the full-restart path by design and their rows document that fallback.
Simulated cost is reported too (at this toy scale the extra
invalidation supersteps outweigh the work saved; work is the scalable
signal). Numbers land in ``benchmarks/results/e11_delta_repair.json``.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.helpers import RESULTS_DIR, format_rows, run_once, write_result
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.graph.generators import road_network
from repro.service.metrics import run_cost
from repro.service.service import canonical_answer_bytes

ROWS, COLS = 20, 20
WORKERS = 4

#: program -> query params (the four ΔG-capable programs).
PROGRAMS = {
    "sssp": {"source": 0},
    "bfs": {"source": 0},
    "cc": {},
    "kcore": {},
}


def _mixed_batch(graph) -> list[tuple]:
    """One deterministic symmetric batch: 3 deletes, 2 reweights, 2 inserts.

    Symmetric (both stored directions changed together) so the same
    batch is valid for k-core, which requires a symmetric edge set.
    """
    pairs = sorted(
        {
            (min(e.src, e.dst), max(e.src, e.dst))
            for e in graph.edges()
            if e.src != e.dst
            and graph.has_edge(e.src, e.dst)
            and graph.has_edge(e.dst, e.src)
        }
    )
    ops: list[tuple] = []
    for u, v in pairs[10:13]:  # skip the lowest-id corner, stay deterministic
        ops.append(("delete", u, v))
        ops.append(("delete", v, u))
    for u, v in pairs[20:22]:
        ops.append(("reweight", u, v, 12.0))
        ops.append(("reweight", v, u, 12.0))
    n = graph.num_vertices
    for u, v in ((0, n - 1), (3, n - 4)):
        if not graph.has_edge(u, v) and not graph.has_edge(v, u):
            ops.append(("insert", u, v, 2.5))
            ops.append(("insert", v, u, 2.5))
    return ops


def _run_one(name: str) -> dict:
    graph = road_network(ROWS, COLS, seed=7)
    session = Session(graph, num_workers=WORKERS, partition="bfs")
    engine = session.engine()
    query = build_query(name, **PROGRAMS[name])
    batch = _mixed_batch(graph)

    program = get_program(name)
    cold = engine.run(program, query, keep_state=True)
    inc = engine.run_incremental(program, query, cold.state, batch)
    inc_work = inc.metrics.work()
    full = engine.run(get_program(name), query)  # fragments now mutated
    full_work = full.metrics.work()

    identical = canonical_answer_bytes(inc.answer) == canonical_answer_bytes(
        full.answer
    )
    return {
        "program": name,
        "ops": len(batch),
        "mode": inc.repair.mode,
        "safe_ops": inc.repair.safe_ops,
        "unsafe_ops": inc.repair.unsafe_ops,
        "invalidated": inc.repair.invalidated,
        "inc_work": inc_work,
        "full_work": full_work,
        "work_ratio": inc_work / full_work if full_work else 0.0,
        "inc_cost": run_cost(inc.metrics),
        "full_cost": run_cost(full.metrics),
        "identical": identical,
    }


@pytest.fixture(scope="module")
def results():
    data = {}
    yield data
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "e11_delta_repair.json"
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_delta_repair_matches_recompute(benchmark, results, name):
    row = run_once(benchmark, lambda: _run_one(name))
    assert row["identical"], f"{name}: repaired answer != full recompute"
    assert row["unsafe_ops"] > 0  # the batch exercises the repair path
    results[name] = row


def test_report(results):
    assert set(results) == set(PROGRAMS)
    scoped = [row for row in results.values() if row["mode"] == "scoped"]
    # Tight-edge regions keep SSSP/BFS scoped on this graph, and a
    # scoped repair must settle strictly less than recomputation.
    assert scoped, "no program took the scoped repair path"
    for row in scoped:
        assert row["work_ratio"] < 1.0, row
    rows = [
        [
            row["program"],
            row["ops"],
            row["mode"],
            f"{row['safe_ops']}/{row['unsafe_ops']}",
            row["invalidated"],
            row["inc_work"],
            row["full_work"],
            f"{row['work_ratio']:.2f}x",
            row["inc_cost"],
            row["full_cost"],
        ]
        for _, row in sorted(results.items())
    ]
    write_result(
        "E11_delta_repair",
        "E11 — mixed ΔG (insert+delete+reweight) repair vs recompute, "
        f"road:{ROWS}x{COLS}, {WORKERS} workers\n"
        + format_rows(
            [
                "program",
                "ops",
                "mode",
                "safe/unsafe",
                "invalidated",
                "inc work",
                "full work",
                "work ratio",
                "inc cost (s)",
                "full cost (s)",
            ],
            rows,
        ),
    )
