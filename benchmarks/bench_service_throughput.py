"""Serving throughput: cache + IncEval maintenance vs recompute-always.

Replays the bundled workload trace (queries, priorities, three edge
batches) through two configurations of the serving stack:

1. **served** — the real :class:`~repro.service.service.GrapeService`:
   versioned result cache on, standing queries repaired by IncEval;
2. **recompute** — the same trace with the cache capacity forced to the
   minimum and every update verified, so every query pays a full engine
   run (the "no serving layer" baseline).

Asserts the serving claims (hit rate > 0, standing answers verified
byte-identical, incremental repair strictly cheaper than recompute)
and writes the measured numbers to
``benchmarks/results/service_throughput.json``.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import RESULTS_DIR, run_once, write_record
from repro.service.trace import load_trace, replay_trace

TRACE = RESULTS_DIR.parent / "traces" / "service_workload.json"


@pytest.fixture(scope="module")
def results():
    return {}


def _replay(cache_capacity=None):
    trace = load_trace(str(TRACE))
    if cache_capacity is not None:
        trace.setdefault("service", {})["cache_capacity"] = cache_capacity
    _, report = replay_trace(trace, verify=True)
    return report


def _totals(report):
    completed = sum(c["completed"] for c in report.classes.values())
    engine_time = sum(
        c["engine"]["simulated_time"] for c in report.classes.values()
    )
    return {
        "queries_completed": completed,
        "simulated_time": report.simulated_time,
        "queries_per_simulated_second": (
            completed / report.simulated_time if report.simulated_time else 0.0
        ),
        "cache_hit_rate": report.cache_hit_rate,
        "engine_time": engine_time,
        "standing": report.standing,
    }


def test_served_configuration(benchmark, results):
    report = run_once(benchmark, _replay)
    assert report.survived
    assert report.cache_hit_rate > 0
    for standing in report.standing:
        assert standing["mismatches"] == 0
        assert standing["work_ratio"] < 1.0  # IncEval beat recompute
    results["served"] = _totals(report)


def test_recompute_baseline(benchmark, results):
    # Capacity 1 with several live query classes ≈ no cache: every
    # repeated query falls back to a full engine run.
    report = run_once(benchmark, lambda: _replay(cache_capacity=1))
    assert report.survived
    results["recompute"] = _totals(report)


def test_serving_layer_wins(results):
    served, recompute = results["served"], results["recompute"]
    assert served["queries_completed"] == recompute["queries_completed"]
    assert served["cache_hit_rate"] > recompute["cache_hit_rate"]
    # Same workload, strictly less engine time and simulated latency.
    assert served["engine_time"] < recompute["engine_time"]
    assert served["simulated_time"] < recompute["simulated_time"]
    results["speedup"] = recompute["simulated_time"] / served["simulated_time"]
    write_record("service_throughput", results)
