"""E2 — Section 3's partition-strategy numbers.

Paper: "for SSSP, GRAPE takes 18.3 seconds and ships 7.5M messages with
16 nodes over LiveJournal partitioned with METIS. It takes 30 seconds
and ships 40M messages with stream-based partition in the same setting
due to more cross edges."

Reproduction: SSSP over a community-structured social graph (the
LiveJournal stand-in: heavy-tailed degrees + dense communities), 16
workers, comparing the multilevel (METIS-equivalent), streaming (LDG,
Fennel) and hash strategies. Expected shape: multilevel ships the fewest
parameter messages and is fastest; streaming in between; hash worst —
the gap tracking the cross-edge counts, the mechanism the paper names.

Writes ``benchmarks/results/e2_partition_strategies.json``: messages,
bytes, cross edges, balance and a digest of each assignment, key order
included, so a partitioner change that moves a single vertex shows up
as a diff of that file.
"""

from __future__ import annotations

import hashlib

import pytest

from benchmarks.helpers import COST_MODEL, run_once, write_record
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.graph.generators import community_graph
from repro.partition.base import evaluate_partition
from repro.partition.registry import get_partitioner

WORKERS = 16
STRATEGIES = ("multilevel", "ldg", "fennel", "hash")


@pytest.fixture(scope="module")
def social():
    return community_graph(
        4000, num_communities=32, intra_degree=6, inter_degree=1, seed=2
    )


@pytest.fixture(scope="module")
def results():
    return {}


def _run(graph, strategy):
    assignment = get_partitioner(strategy)(graph, WORKERS)
    fragd = build_fragments(graph, assignment, WORKERS, strategy)
    report = evaluate_partition(graph, assignment, WORKERS, strategy)
    result = GrapeEngine(fragd, COST_MODEL).run(
        SSSPProgram(), SSSPQuery(source=0)
    )
    digest = hashlib.sha256(repr(list(assignment.items())).encode())
    return report, result, digest.hexdigest()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy(benchmark, social, results, strategy):
    results[strategy] = run_once(benchmark, lambda: _run(social, strategy))


def test_e2_shape_and_report(benchmark, social, results):
    run_once(benchmark, lambda: None)
    assert len(results) == len(STRATEGIES)

    ml_report, ml, _ = results["multilevel"]
    hash_report, hsh, _ = results["hash"]
    ldg_report, ldg, _ = results["ldg"]

    # Cross edges drive everything (the paper's stated mechanism).
    assert ml_report.cut_edges < ldg_report.cut_edges < hash_report.cut_edges
    # Fewer cross edges -> fewer shipped parameters and less time.
    assert ml.metrics.total_messages < hsh.metrics.total_messages
    assert ml.metrics.total_bytes < hsh.metrics.total_bytes
    assert ml.total_time < hsh.total_time
    assert ldg.metrics.total_bytes < hsh.metrics.total_bytes
    # All strategies produce the same answer.
    answers = [
        {v: round(d, 9) for v, d in r.answer.items()}
        for _, r, _ in results.values()
    ]
    assert all(a == answers[0] for a in answers)

    record = {}
    for strategy in STRATEGIES:
        report, result, digest = results[strategy]
        record[strategy] = {
            "messages": result.metrics.total_messages,
            "bytes": result.metrics.total_bytes,
            "cross_edges": report.cut_edges,
            "balance": report.balance,
            "assignment_sha256": digest,
        }
    write_record("e2_partition_strategies", record)
