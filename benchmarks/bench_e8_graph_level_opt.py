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
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import COST_MODEL, run_once, write_record
from repro.algorithms.simulation import SimProgram, SimQuery
from repro.core.engine import GrapeEngine
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.graph.generators import labeled_random
from repro.partition.registry import get_partitioner
from repro.storage.index import IndexManager

WORKERS = 8


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
        return GrapeEngine(fragd, COST_MODEL).run(program, query)

    plain, indexed = run_once(
        benchmark, lambda: [run_variant(False), run_variant(True)]
    )
    assert indexed.answer == plain.answer
    assert indexed.metrics.work() * 2 < plain.metrics.work()
    write_record(
        "e8_graph_level_opt",
        {
            variant: {
                "refine_steps": result.metrics.work(),
                "time_s": result.total_time,
            }
            for variant, result in (
                ("PEval full scan", plain),
                ("PEval + label index", indexed),
            )
        },
    )
