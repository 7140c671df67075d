"""E1 — Table 1: graph traversal (SSSP) on four parallel systems.

Paper setup: SSSP over the US road network with 24 processors.
Reproduction: SSSP over a generated road network (high diameter, degree
<= 8) with 24 simulated workers. Methodology follows each system as
deployed: Giraph/GraphLab-style engines hash-partition (their default),
Blogel uses a locality partition (its Voronoi partitioner's effect),
GRAPE uses its Partition Manager's multilevel strategy. Expected shape:

    time:  GRAPE < Blogel << GraphLab ~ Giraph
    comm:  GRAPE ~ Blogel << GraphLab ~ Giraph

(the paper's 5-orders-of-magnitude comm gap between GRAPE and Blogel
needs continent-scale graphs; at laptop scale the two locality-aware
systems converge — see EXPERIMENTS.md.)
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import COST_MODEL, run_once, write_record
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.baselines.blogel import BlogelEngine
from repro.baselines.blogel_programs import BlogelSSSP
from repro.baselines.gas import GASEngine
from repro.baselines.gas_programs import GASSSSP
from repro.baselines.pregel import PregelEngine
from repro.baselines.pregel_programs import PregelSSSP
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner

WORKERS = 24
SOURCE = 0


@pytest.fixture(scope="module")
def road():
    return road_network(60, 60, seed=1)


@pytest.fixture(scope="module")
def fragments(road):
    out = {}
    for strategy in ("hash", "bfs", "multilevel"):
        assignment = get_partitioner(strategy)(road, WORKERS)
        out[strategy] = build_fragments(road, assignment, WORKERS, strategy)
    return out


@pytest.fixture(scope="module")
def results():
    return {}


def test_giraph_style(benchmark, road, fragments, results):
    r = run_once(
        benchmark,
        lambda: PregelEngine(fragments["hash"], COST_MODEL).run(
            PregelSSSP(SOURCE)
        ),
    )
    results["Giraph (vertex-centric)"] = r.metrics


def test_graphlab_style(benchmark, road, fragments, results):
    r = run_once(
        benchmark,
        lambda: GASEngine(road, fragments["hash"], COST_MODEL).run(
            GASSSSP(SOURCE)
        ),
    )
    results["GraphLab (vertex-centric)"] = r.metrics


def test_blogel_style(benchmark, road, fragments, results):
    r = run_once(
        benchmark,
        lambda: BlogelEngine(fragments["bfs"], COST_MODEL).run(
            BlogelSSSP(SOURCE)
        ),
    )
    results["Blogel (block-centric)"] = r.metrics


def test_grape(benchmark, road, fragments, results):
    r = run_once(
        benchmark,
        lambda: GrapeEngine(fragments["multilevel"], COST_MODEL).run(
            SSSPProgram(), SSSPQuery(source=SOURCE)
        ),
    )
    results["GRAPE (auto-parallelization)"] = r.metrics


def test_table1_shape_and_report(benchmark, road, results):
    """Assert the Table-1 ordering and emit the reproduced table."""
    run_once(benchmark, lambda: None)  # keep visible under --benchmark-only
    assert len(results) == 4, "run the whole module, not a single bench"
    grape = results["GRAPE (auto-parallelization)"]
    blogel = results["Blogel (block-centric)"]
    giraph = results["Giraph (vertex-centric)"]
    graphlab = results["GraphLab (vertex-centric)"]

    # Time ordering: GRAPE < Blogel < vertex-centric engines.
    assert grape.total_time < blogel.total_time
    assert blogel.total_time < giraph.total_time
    assert blogel.total_time < graphlab.total_time
    # Communication: locality systems far below vertex-centric ones.
    assert grape.communication_mb * 5 < giraph.communication_mb
    assert grape.communication_mb * 5 < graphlab.communication_mb
    assert grape.communication_mb <= blogel.communication_mb * 1.25

    write_record(
        "e1_table1_sssp",
        {
            name: {
                "time_s": metrics.total_time,
                "comm_mb": metrics.communication_mb,
                "supersteps": metrics.num_supersteps,
            }
            for name, metrics in results.items()
        },
    )
