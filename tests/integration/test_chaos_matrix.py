"""Fault-matrix correctness: every fault class, strict rounds and
relaxed waves.

Each cell runs SSSP or CC under one standard fault plan with a
checkpoint policy installed and must either converge to the sequential
oracle or raise one of the documented failure types — never return a
silently wrong answer.
"""

import pytest

from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sequential.cc_seq import connected_components
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.engineapi.chaos import answers_match, run_chaos, standard_plans
from repro.errors import TransportError, WorkerFailure
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner
from repro.runtime.faults import DropFault, FaultPlan
from repro.storage.dfs import SimulatedDFS

#: The superstep modes. Both ship each border value straight to the
#: fragments hosting it; ``direct`` is the strict BSP column.
COLUMNS = [
    pytest.param("strict", id="direct"),
    pytest.param("relaxed", id="relaxed"),
]
PLANS = standard_plans(seed=7)


def _engine(graph, mode, workers=3):
    assignment = get_partitioner("bfs")(graph, workers)
    return GrapeEngine(
        build_fragments(graph, assignment, workers, "bfs"), mode=mode
    )


def _graph():
    return road_network(9, 9, seed=6, removal_prob=0.0)


@pytest.mark.parametrize("mode", COLUMNS)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_sssp_survives_fault_class(plan_name, mode, tmp_path):
    g = _graph()
    engine = _engine(g, mode)
    policy = CheckpointPolicy(
        SimulatedDFS(tmp_path), every=1, tag=f"sssp-{plan_name}-{mode}"
    )
    oracle = single_source(g, 0)
    try:
        result = engine.run(
            SSSPProgram(),
            SSSPQuery(source=0),
            checkpoint=policy,
            faults=PLANS[plan_name],
        )
    except (WorkerFailure, TransportError):
        return  # documented failure, never a wrong answer
    for v in g.vertices():
        got = result.answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        )


@pytest.mark.parametrize("mode", COLUMNS)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_cc_survives_fault_class(plan_name, mode, tmp_path):
    g = _graph()
    engine = _engine(g, mode)
    policy = CheckpointPolicy(
        SimulatedDFS(tmp_path), every=1, tag=f"cc-{plan_name}-{mode}"
    )
    try:
        result = engine.run(
            CCProgram(), CCQuery(), checkpoint=policy,
            faults=PLANS[plan_name],
        )
    except (WorkerFailure, TransportError):
        return
    assert result.answer == connected_components(g)


@pytest.mark.parametrize("mode", COLUMNS)
def test_same_seed_gives_identical_run(mode, tmp_path):
    """The whole fault schedule + recovery trace is seed-deterministic."""
    plan = FaultPlan(faults=PLANS["crash-fatal"].faults
                     + PLANS["drop"].faults, seed=13)

    def one_run(tag):
        g = _graph()
        engine = _engine(g, mode)
        policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag=tag)
        result = engine.run(
            SSSPProgram(), SSSPQuery(source=0),
            checkpoint=policy, faults=plan,
        )
        return (
            result.metrics.faults.as_dict(),
            [
                (r.round_index, r.params_shipped, r.params_applied,
                 r.active_workers)
                for r in result.rounds
            ],
            result.metrics.total_bytes,
            result.metrics.total_messages,
            result.metrics.num_supersteps,
        )

    first = one_run("det-a")
    assert first[0]["crashes_injected"] >= 1  # the plan actually bit
    assert one_run("det-b") == first


def test_persistent_channel_death_is_a_documented_error(tmp_path):
    """A channel that never delivers ends in TransportError, not a hang."""
    g = _graph()
    assignment = get_partitioner("bfs")(g, 3)
    engine = GrapeEngine(build_fragments(g, assignment, 3, "bfs"))
    plan = FaultPlan(faults=(DropFault(times=None),), seed=1)
    with pytest.raises(TransportError, match="undeliverable"):
        engine.run(SSSPProgram(), SSSPQuery(source=0), faults=plan)


def test_run_chaos_report_end_to_end():
    import json

    g = road_network(8, 8, seed=2, removal_prob=0.0)
    report = run_chaos(
        g, "sssp", SSSPQuery(source=0), workers=3, seed=7
    )
    assert report.survived_all
    assert {c.name for c in report.cases} == set(standard_plans())
    crash = next(c for c in report.cases if c.name == "crash-fatal")
    assert crash.faults["recoveries"] >= 1
    assert crash.faults["rounds_lost"] >= 1
    parsed = json.loads(report.to_json())
    assert parsed["survived_all"] is True
    assert "verdict" in report.format()


def test_answers_match_tolerance():
    assert answers_match({1: 0.1 + 0.2}, {1: 0.3}, tol=1e-9)
    assert not answers_match({1: 0.3}, {1: 0.4})
    assert answers_match(
        {1: float("inf"), 2: [1.0, 2.0]}, {1: float("inf"), 2: [1.0, 2.0]}
    )
    assert not answers_match({1: 1}, {2: 1})
