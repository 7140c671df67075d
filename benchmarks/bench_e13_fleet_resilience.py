"""E13 — fleet resilience: availability vs replica fault rate.

Our extension experiment for the replicated serving layer
(:mod:`repro.service.fleet`): a 3-replica fleet serves a fixed
query + ΔG workload while the seed-deterministic chaos plan injects
replica crashes (transient and fatal), stragglers and update lag at an
increasing overall rate. The sweep records, per rate, the fleet's
availability, how much of the traffic degraded to stale-tagged
answers, and how hard the resilience machinery worked (failovers,
hedges, recoveries, journal catch-up batches) plus the p99 latency
under chaos.

Asserts the robustness claim end-to-end: at *every* fault rate the
fleet answers 100% of admitted queries — a single service would drop
the queries its crashed process was holding — and the fault-free run
serves everything fresh. Numbers land in
``benchmarks/results/e13_fleet_resilience.json``.
"""

from __future__ import annotations

import pytest

from benchmarks.helpers import run_once, write_record
from repro.service.fleet import FleetRouter, default_chaos_plan

GRAPH = "road:8x8"
REPLICAS = 3
WORKERS = 2
SEED = 7
DEADLINE = 0.05
QUERIES = 24
FAULT_RATES = [0.0, 0.1, 0.3, 0.5]


def _run_one(rate: float) -> dict:
    """One sweep point: the fixed workload at one overall fault rate."""
    fleet = FleetRouter(
        {"graph": GRAPH, "workers": WORKERS},
        replicas=REPLICAS,
        faults=default_chaos_plan(SEED, rate),
        deadline=DEADLINE,
    )
    fleet.register_standing("cc", "cc", {})
    n = fleet.replicas[0].service.session.graph.num_vertices
    for i in range(QUERIES):
        fleet.query("sssp", {"source": i % 8})
        if i % 3 == 0:
            fleet.apply_updates(edges=[[i % 8, (i * 7 + 5) % n, 1.0 + i]])
    report = fleet.report()
    d = report.as_dict()
    return {
        "fault_rate": rate,
        "admitted": d["admitted"],
        "answered": d["answered"],
        "availability": d["availability"],
        "stale_rate": d["stale_rate"],
        "deadline_misses": d["deadline_misses"],
        "failovers": d["failovers"],
        "hedges": d["hedges"],
        "recoveries": d["recoveries"],
        "catchup_batches": d["catchup_batches"],
        "audits_failed": d["audits_failed"],
        "faults_injected": sum(
            v
            for k, v in d["faults"].items()
            if k.endswith("_injected") and isinstance(v, int)
        ),
        "p99": d["latency_p99"],
        "survived": d["survived"],
    }


@pytest.fixture(scope="module")
def results():
    return {}


@pytest.mark.parametrize("rate", FAULT_RATES)
def test_fleet_survives_fault_rate(benchmark, results, rate):
    row = run_once(benchmark, lambda: _run_one(rate))
    # The resilience claim: no admitted query is ever dropped, and
    # every rejoin audit is byte-identical.
    assert row["availability"] == 1.0, row
    assert row["survived"], row
    if rate == 0.0:
        assert row["faults_injected"] == 0
        assert row["stale_rate"] == 0.0
        assert row["failovers"] == 0
    results[f"{rate:.1f}"] = row


def test_report(results):
    assert len(results) == len(FAULT_RATES)
    chaotic = [r for r in results.values() if r["fault_rate"] > 0]
    # The sweep must actually exercise the machinery it claims to test.
    assert any(r["faults_injected"] > 0 for r in chaotic)
    assert any(r["failovers"] > 0 or r["recoveries"] > 0 for r in chaotic)
    write_record("e13_fleet_resilience", results)
