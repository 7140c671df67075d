"""E5 — bounded IncEval: cost tracks |M| + |ΔO|, not |F| (Example 1(d)).

Two measurements:

1. **Boundedness.** For SSSP across growing road networks (fixed worker
   count, so |F_i| grows linearly), the *per-round IncEval settled-vertex
   count* should track the change volume, not the fragment size — its
   share of the fragment should *fall* as fragments grow.
2. **Ablation.** The same query run with IncEval replaced by full
   re-computation (:class:`SSSPRecomputeProgram`): identical answers,
   but per-round work Θ(|F_i|). (Both read the same virtual time: at
   this scale network and barrier costs are all it charges.)

Also records the fixpoint trace (E7): shipped parameters per round are
monotonically consumed, and the final round ships zero.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import COST_MODEL, run_once, write_record
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
        return GrapeEngine(_fragd(graph), COST_MODEL).run(
            SSSPProgram(), SSSPQuery(source=0)
        )

    result = run_once(benchmark, run)
    total, worst_round = _inceval_stats(result.metrics)
    fragment_size = graph.num_vertices / WORKERS
    # E7: the fixpoint trace ends with a zero-ship round.
    assert result.rounds[-1].params_shipped == 0
    results[f"{size}x{size}"] = {
        "vertices": graph.num_vertices,
        "fragment": fragment_size,
        "worst_round_settled": worst_round,
        "worst_share": worst_round / fragment_size,
        "total_settled": total,
        "time_s": result.total_time,
    }


def test_ablation_recompute(benchmark, results):
    graph = road_network(40, 40, seed=5, removal_prob=0.0)

    engine = GrapeEngine(_fragd(graph), COST_MODEL)
    rb, rr = run_once(
        benchmark,
        lambda: [
            engine.run(program, SSSPQuery(source=0))
            for program in (SSSPProgram(), SSSPRecomputeProgram())
        ],
    )
    assert rb.answer == rr.answer
    b_total, _ = _inceval_stats(rb.metrics)
    r_total, _ = _inceval_stats(rr.metrics)
    results["ablation"] = {
        "bounded": {"settled_total": b_total, "time_s": rb.total_time},
        "recompute": {"settled_total": r_total, "time_s": rr.total_time},
    }
    assert b_total * 2 < r_total


def test_e5_shape_and_report(benchmark, results):
    run_once(benchmark, lambda: None)
    ablation = results.pop("ablation")
    # Boundedness: worst-round share of the fragment shrinks as the
    # fragment grows (cost tracks changes, not |F|).
    shares = [results[f"{n}x{n}"]["worst_share"] for n in SIZES]
    assert shares[-1] < shares[0]
    write_record(
        "e5_inceval_bounded", {"sizes": results, "ablation_40x40": ablation}
    )
