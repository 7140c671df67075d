"""Tier-1 chaos smoke: one crash+recover run, and no-plan parity.

Fast sanity gates: the chaos runtime heals a fatal crash on a small
graph under a fixed seed, and a run *without* a fault plan is
metric-for-metric identical to the uninstrumented engine.
"""

import pytest

from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner
from repro.runtime.costmodel import CostModel
from repro.runtime.faults import CrashFault, FaultPlan
from repro.storage.dfs import SimulatedDFS


def _engine(graph, workers=3, **kwargs):
    assignment = get_partitioner("bfs")(graph, workers)
    return GrapeEngine(
        build_fragments(graph, assignment, workers, "bfs"), **kwargs
    )


def test_crash_recover_smoke(tmp_path):
    g = road_network(8, 8, seed=1, removal_prob=0.0)
    plan = FaultPlan(
        faults=(CrashFault(at_superstep=3, fatal=True),), seed=7
    )
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="smoke")
    result = _engine(g).run(
        SSSPProgram(), SSSPQuery(source=0), checkpoint=policy, faults=plan
    )
    oracle = single_source(g, 0)
    mismatches = sum(
        1
        for v in g.vertices()
        if result.answer.get(v, INF) != pytest.approx(oracle[v])
        and not (result.answer.get(v, INF) == INF and oracle[v] == INF)
    )
    assert mismatches == 0
    assert result.metrics.faults.recoveries == 1
    assert result.metrics.faults.rounds_lost >= 1


def test_no_plan_means_no_metric_changes():
    g = road_network(8, 8, seed=1, removal_prob=0.0)
    # Unmeasured compute: the run's time is its deterministic charges.
    cost = CostModel(deterministic=True)
    plain = _engine(g, cost_model=cost).run(
        SSSPProgram(), SSSPQuery(source=0)
    )
    again = _engine(g, cost_model=cost).run(
        SSSPProgram(), SSSPQuery(source=0), faults=None
    )

    assert not plain.metrics.faults.any
    assert "faults=" not in plain.metrics.summary()
    for a, b in (
        (plain.metrics.total_bytes, again.metrics.total_bytes),
        (plain.metrics.total_messages, again.metrics.total_messages),
        (plain.metrics.num_supersteps, again.metrics.num_supersteps),
        (plain.metrics.total_time, again.metrics.total_time),
    ):
        assert a == b
    assert plain.answer == again.answer
