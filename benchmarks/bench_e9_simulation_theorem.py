"""E9 — the Simulation Theorem, measured (our extension experiment).

"GRAPE optimally simulates parallel models MapReduce, BSP and PRAM ...
with the same number of supersteps and memory cost" (Section 2.2). The
BSP half is executable here: vertex programs wrapped through
:class:`~repro.baselines.pregel_as_pie.VertexCentricAsPIE` run on the
GRAPE engine. This bench quantifies the simulation's fidelity and
overhead for SSSP, WCC and PageRank against the native vertex-centric
engine: identical values, identical superstep counts, and simulated
time within a small constant factor (the adapter adds parameter
bookkeeping per cross-fragment batch).
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import COST_MODEL, run_once, write_record
from repro.baselines.pregel import PregelEngine
from repro.baselines.pregel_as_pie import VertexCentricAsPIE
from repro.baselines.pregel_programs import (
    PregelPageRank,
    PregelSSSP,
    PregelWCC,
)
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.graph.generators import community_graph, road_network
from repro.partition.registry import get_partitioner

WORKERS = 8


@pytest.fixture(scope="module")
def setup():
    road = road_network(25, 25, seed=9)
    social = community_graph(1500, num_communities=12, seed=9)
    fragments = {
        "road": build_fragments(
            road, get_partitioner("hash")(road, WORKERS), WORKERS
        ),
        "social": build_fragments(
            social, get_partitioner("hash")(social, WORKERS), WORKERS
        ),
    }
    return {"road": road, "social": social}, fragments


@pytest.fixture(scope="module")
def results():
    return {}


CASES = {
    "sssp/road": ("road", lambda g: PregelSSSP(source=0)),
    "wcc/social": ("social", lambda g: PregelWCC()),
    "pagerank/road": (
        "road",
        lambda g: PregelPageRank(num_vertices=g.num_vertices, iterations=20),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate(benchmark, setup, results, case):
    graphs, fragments = setup
    graph_key, make_program = CASES[case]
    graph = graphs[graph_key]
    fragd = fragments[graph_key]

    def run():
        native = PregelEngine(fragd, COST_MODEL).run(make_program(graph))
        adapter = VertexCentricAsPIE(
            make_program(graph), num_vertices=graph.num_vertices
        )
        simulated = GrapeEngine(fragd, COST_MODEL).run(adapter, None)
        return native, simulated

    results[case] = run_once(benchmark, run)


def test_e9_shape_and_report(benchmark, results):
    run_once(benchmark, lambda: None)
    assert len(results) == len(CASES)
    record = {}
    for case in sorted(CASES):
        native, simulated = results[case]
        # identical values (PageRank: approx — float summation order)
        if case.startswith("pagerank"):
            for v, val in native.values.items():
                assert simulated.answer[v] == pytest.approx(val)
        else:
            assert simulated.answer == native.values
        # same superstep count, +1 for GRAPE's Assemble step
        assert simulated.num_supersteps - 1 == native.supersteps
        record[case] = {
            "pregel_supersteps": native.supersteps,
            "grape_supersteps": simulated.num_supersteps - 1,
            "pregel_time_s": native.metrics.total_time,
            "grape_time_s": simulated.metrics.total_time,
            "overhead": simulated.metrics.total_time
            / native.metrics.total_time,
        }
    write_record("e9_simulation_theorem", record)
