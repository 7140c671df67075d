"""E16 — barrier-relaxed supersteps vs strict BSP on a skewed partition.

E12 showed *why* BSP barriers hurt: each superstep costs its slowest
worker, so a skewed partition idles every light fragment at the heavy
fragment's pace. ``mode="relaxed"`` times the same rounds on
per-worker clocks instead of a barrier, letting light
fragments run ahead while the Assurance Theorem keeps the answers
exact. This bench measures how
much of the barrier slack the pipeline reclaims on a deliberately
skewed road:40x40 partition and — the whole point of the gate —
asserts in the same run that the relaxed answers, fixpoint traces and
state blobs are byte-identical to the strict-BSP oracle. A third run
puts the scheduling lever beside the placement lever: strict on the
same graph after ``Session.repartition``'s multilevel partitioner
(the Load Balancer's job; EXPERIMENTS.md A3).

Writes ``benchmarks/results/e16_relaxed_makespan.json``.
"""

from __future__ import annotations

import pickle
import re

from benchmarks.helpers import COST_MODEL, write_record
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.obs.skew import report_for_tracer
from repro.obs.tracer import Tracer
from repro.partition.registry import get_partitioner
from repro.service.service import canonical_answer_bytes

GRAPH_SPEC = "road:40x40"
NUM_WORKERS = 4
#: Fraction of vertices pinned to the straggler fragment (worker 0) —
#: the skew the E12 report quantifies and relaxed mode reclaims.
HEAVY_FRACTION = 0.7


def _skewed_assignment(graph) -> dict:
    vertices = sorted(graph.vertices())
    heavy = int(len(vertices) * HEAVY_FRACTION)
    assignment = {}
    for i, v in enumerate(vertices):
        if i < heavy:
            assignment[v] = 0
        else:
            assignment[v] = 1 + (i % (NUM_WORKERS - 1))
    return assignment


def _run(mode: str, graph, assignment, strategy="skewed"):
    fragmented = build_fragments(graph, assignment, NUM_WORKERS, strategy)
    tracer = Tracer()
    engine = GrapeEngine(
        fragmented,
        cost_model=COST_MODEL,
        mode=mode,
        tracer=tracer,
    )
    result = engine.run(
        get_program("sssp"), build_query("sssp", source=0), keep_state=True
    )
    return {
        "answer": canonical_answer_bytes(result.answer),
        "rounds": [
            (r.round_index, r.params_shipped, r.params_applied,
             r.active_workers)
            for r in result.rounds
        ],
        "blob": pickle.dumps((result.state.partials, result.state.params)),
        "traffic": [
            (s.phase, s.messages_sent, s.bytes_sent)
            for s in result.metrics.supersteps
        ],
        "total_time": result.metrics.total_time,
        "report": report_for_tracer(tracer),
    }


def test_e16_relaxed_makespan():
    graph = graph_from_spec(GRAPH_SPEC)
    assignment = _skewed_assignment(graph)
    strict = _run("strict", graph, assignment)
    relaxed = _run("relaxed", graph, assignment)
    repartitioned = _run(
        "strict", graph,
        get_partitioner("multilevel")(graph, NUM_WORKERS), "multilevel",
    )

    # The gate: only scheduling and makespan may differ. Answers are
    # byte-identical across all three pipelines; the fixpoint trace,
    # state blobs and per-superstep traffic match the strict oracle,
    # whose sends relaxed mode executes one for one.
    assert strict["answer"] == relaxed["answer"]
    assert repartitioned["answer"] == strict["answer"]
    assert strict["rounds"] == relaxed["rounds"]
    assert strict["blob"] == relaxed["blob"]
    assert strict["traffic"] == relaxed["traffic"]

    # The claim: the pipeline strictly beats the barrier on skew.
    assert relaxed["total_time"] < strict["total_time"], (
        relaxed["total_time"], strict["total_time"],
    )
    reclaimed = strict["total_time"] - relaxed["total_time"]
    reclaimed_pct = 100.0 * reclaimed / strict["total_time"]
    repartitioned_pct = 100.0 * (
        1.0 - repartitioned["total_time"] / strict["total_time"]
    )

    slack_lines = [
        line
        for line in relaxed["report"].splitlines()
        if line.startswith("relaxed waves:")
    ]
    assert slack_lines, "skew report lost its reclaimed-slack line"
    # One virtual clock: the trace prices with the engine's cost model,
    # so the seconds it says the waves reclaimed are the engine's. (Its
    # percentage is of the waves, the engine's of the whole run.)
    (timeline_us,) = re.findall(r"reclaimed (-?[\d.]+)us", slack_lines[0])
    assert abs(float(timeline_us) - 1e6 * reclaimed) <= 0.1, (
        slack_lines[0], reclaimed,
    )

    record = {
        "graph": GRAPH_SPEC,
        "workers": NUM_WORKERS,
        "heavy_fraction": HEAVY_FRACTION,
        "rounds": len(strict["rounds"]),
        "messages": sum(m for _, m, _ in strict["traffic"]),
        "bytes": sum(b for _, _, b in strict["traffic"]),
        "strict_direct_s": round(strict["total_time"], 6),
        "relaxed_s": round(relaxed["total_time"], 6),
        "reclaimed_s": round(reclaimed, 6),
        "reclaimed_pct": round(reclaimed_pct, 2),
        "repartitioned_s": round(repartitioned["total_time"], 6),
        "repartitioned_pct": round(repartitioned_pct, 2),
        "byte_identical": True,
        "timeline_slack": slack_lines[0],
    }
    write_record("e16_relaxed_makespan", record)
