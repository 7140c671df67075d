"""E5 — bounded IncEval: cost tracks |M| + |ΔO|, not |F| (Example 1(d)).

Two measurements:

1. **Boundedness.** For SSSP across growing road networks (fixed worker
   count, so |F_i| grows linearly), the *per-round IncEval settled-vertex
   count* should track the change volume, not the fragment size — its
   share of the fragment should *fall* as fragments grow.
2. **Ablation.** The same query run with IncEval replaced by full
   re-computation (:class:`SSSPRecomputeProgram`): identical answers,
   but per-round work Θ(|F_i|) and a correspondingly slower run.

Also records the fixpoint trace (E7): shipped parameters per round are
monotonically consumed, and the final round ships zero.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import format_rows, run_once, write_result
from repro.algorithms.ablation import SSSPRecomputeProgram
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner

WORKERS = 8
SIZES = (20, 30, 40, 55)


def _fragd(graph):
    assignment = get_partitioner("bfs")(graph, WORKERS)
    return build_fragments(graph, assignment, WORKERS, "bfs")


def _inceval_stats(metrics):
    """(settled vertices over all IncEval calls, the worst single call)."""
    worst = max(
        (s.work_max for s in metrics.supersteps if s.phase == "inceval"),
        default=0,
    )
    return metrics.work("inceval"), worst


@pytest.fixture(scope="module")
def results():
    return {}


@pytest.mark.parametrize("size", SIZES)
def test_boundedness_across_sizes(benchmark, results, size):
    graph = road_network(size, size, seed=5, removal_prob=0.0)

    def run():
        return GrapeEngine(_fragd(graph)).run(
            SSSPProgram(), SSSPQuery(source=0)
        )

    result = run_once(benchmark, run)
    total, worst_round = _inceval_stats(result.metrics)
    fragment_size = graph.num_vertices / WORKERS
    results[size] = {
        "vertices": graph.num_vertices,
        "fragment": fragment_size,
        "worst_round_settled": worst_round,
        "worst_share": worst_round / fragment_size,
        "total_settled": total,
        "rounds": result.rounds,
        "time": result.total_time,
    }


def test_ablation_recompute(benchmark, results):
    graph = road_network(40, 40, seed=5, removal_prob=0.0)

    def run():
        fragd = _fragd(graph)
        rb = GrapeEngine(fragd).run(SSSPProgram(), SSSPQuery(source=0))
        rr = GrapeEngine(fragd).run(
            SSSPRecomputeProgram(), SSSPQuery(source=0)
        )
        return rb, rr

    rb, rr = run_once(benchmark, run)
    assert rb.answer == rr.answer
    b_total, _ = _inceval_stats(rb.metrics)
    r_total, _ = _inceval_stats(rr.metrics)
    results["ablation"] = {
        "bounded_settled": b_total,
        "recompute_settled": r_total,
        "bounded_time": rb.total_time,
        "recompute_time": rr.total_time,
    }
    assert b_total * 2 < r_total
    assert rb.total_time < rr.total_time


def test_e5_shape_and_report(benchmark, results):
    run_once(benchmark, lambda: None)
    assert set(SIZES) <= set(results)

    # Boundedness: worst-round share of the fragment shrinks as the
    # fragment grows (cost tracks changes, not |F|).
    shares = [results[size]["worst_share"] for size in SIZES]
    assert shares[-1] < shares[0]

    # E7: fixpoint traces end with a zero-ship round; shipped counts
    # never exceed the previous round's applied+generated volume wildly.
    for size in SIZES:
        rounds = results[size]["rounds"]
        assert rounds[-1].params_shipped == 0

    rows = [
        [
            f"{size}x{size}",
            results[size]["vertices"],
            int(results[size]["fragment"]),
            results[size]["worst_round_settled"],
            results[size]["worst_share"],
            results[size]["time"],
        ]
        for size in SIZES
    ]
    table = format_rows(
        ["Grid", "|V|", "|F_i|", "WorstRoundSettled", "Share", "Time(s)"],
        rows,
    )
    ab = results["ablation"]
    ablation = format_rows(
        ["IncEval variant", "SettledTotal", "Time(s)"],
        [
            ["bounded (Ramalingam-Reps)", ab["bounded_settled"],
             ab["bounded_time"]],
            ["recompute (full Dijkstra)", ab["recompute_settled"],
             ab["recompute_time"]],
        ],
    )
    write_result(
        "E5_inceval_bounded",
        "E5 — bounded IncEval: per-round work vs fragment size "
        f"({WORKERS} workers)\n" + table
        + "\n\nAblation (40x40 grid):\n" + ablation,
    )
