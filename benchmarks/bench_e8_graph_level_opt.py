"""E8 — graph-level optimization: indexed vs unindexed PEval (Section 3).

"GRAPE parallelizes sequential algorithms as a whole, and hence
naturally supports optimization strategies developed for sequential
algorithms, such as graph indexing ... not easy to be supported by,
e.g., vertex-centric programming."

Reproduction: graph simulation over a 25-label random graph with a
3-label pattern, with PEval either scanning every vertex for initial
candidates or consulting the Index Manager's prebuilt label index
(indices are populated at load time, per Fig. 2). Same answers; the
indexed run performs under half the refinement work, asserted on the
deterministic step counter. (A vertex-centric engine cannot skip
vertices at all — every vertex runs in superstep 0 — which is the point
of the claim.)

Both variants run three times, interleaved, and the table reports the
best compute per variant. That column is wall-clock time at millisecond
scale, so machine load can reorder it: it is reported, not asserted.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import format_rows, run_once, write_result
from repro.algorithms.simulation import SimProgram, SimQuery
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.graph.generators import labeled_random
from repro.partition.registry import get_partitioner
from repro.storage.index import IndexManager

WORKERS = 8
REPEATS = 3


def _pattern() -> Graph:
    p = Graph()
    p.add_vertex("a", label="L0")
    p.add_vertex("b", label="L1")
    p.add_vertex("c", label="L2")
    p.add_edge("a", "b")
    p.add_edge("b", "c")
    return p


@pytest.fixture(scope="module")
def setup():
    graph = labeled_random(8000, num_labels=25, edges_per_vertex=5, seed=8)
    assignment = get_partitioner("hash")(graph, WORKERS)
    fragd = build_fragments(graph, assignment, WORKERS, "hash")
    # Load-time index population (the Index Manager sits beside the
    # Partition Manager in Fig. 2, outside the query path).
    manager = IndexManager()
    for frag in fragd.fragments:
        manager.label_index(frag.graph)
    return fragd, manager


def test_e8_index_ablation(benchmark, setup):
    fragd, manager = setup
    query = SimQuery(pattern=_pattern())

    def run_variant(use_index):
        program = SimProgram(use_index=use_index, index_manager=manager)
        result = GrapeEngine(fragd).run(program, query)
        return result.metrics.work(), result

    def run_all():
        runs = {False: [], True: []}
        for _ in range(REPEATS):
            for use_index in (False, True):
                runs[use_index].append(run_variant(use_index))
        return runs

    runs = run_once(benchmark, run_all)

    plain_steps = runs[False][0][0]
    indexed_steps = runs[True][0][0]
    plain_compute = min(r.metrics.total_compute for _, r in runs[False])
    indexed_compute = min(r.metrics.total_compute for _, r in runs[True])
    plain_answer = runs[False][0][1].answer
    indexed_answer = runs[True][0][1].answer

    assert indexed_answer == plain_answer
    assert indexed_steps * 2 < plain_steps

    rows = [
        ["PEval full scan", plain_steps, plain_compute],
        ["PEval + label index", indexed_steps, indexed_compute],
    ]
    table = format_rows(
        ["Variant", "RefineSteps", "BestTotalCompute(s)"], rows
    )
    write_result(
        "E8_graph_level_opt",
        "E8 — graph-level optimization: label-indexed Sim PEval "
        f"(25-label graph, {WORKERS} workers, best of {REPEATS})\n" + table,
    )
