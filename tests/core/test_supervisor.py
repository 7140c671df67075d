"""Tests for the self-healing supervisor: retries, recovery, escalation."""

import pytest

from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.core.supervisor import (
    SupervisionPolicy,
    Supervisor,
    capped_backoff,
)
from repro.errors import (
    FatalWorkerFailure,
    TransientWorkerFailure,
    WorkerFailure,
)
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner
from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault
from repro.runtime.metrics import FaultCounters
from repro.storage.dfs import SimulatedDFS


def _engine(graph, workers=4, **kwargs):
    assignment = get_partitioner("bfs")(graph, workers)
    return GrapeEngine(
        build_fragments(graph, assignment, workers, "bfs"), **kwargs
    )


def _assert_matches_oracle(graph, answer):
    oracle = single_source(graph, 0)
    for v in graph.vertices():
        got = answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        )


def test_transient_crashes_are_retried_in_place():
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    engine = _engine(g)
    plan = FaultPlan(
        faults=(CrashFault(at_superstep=1, fatal=False, times=2),), seed=5
    )
    result = engine.run(SSSPProgram(), SSSPQuery(source=0), faults=plan)
    _assert_matches_oracle(g, result.answer)
    f = result.metrics.faults
    assert f.crashes_injected == 2
    assert f.retries == 2
    assert f.backoff_time > 0
    assert f.recoveries == 0
    # retries land in the per-superstep trace too
    assert sum(s.retries for s in result.metrics.supersteps) == 2


def test_fatal_crash_recovers_in_run_with_checkpoint(tmp_path):
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    engine = _engine(g)
    plan = FaultPlan(
        faults=(CrashFault(at_superstep=4, fatal=True),), seed=5
    )
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="heal")
    # no exception handling at the call site: the supervisor heals in-run
    result = engine.run(
        SSSPProgram(), SSSPQuery(source=0), checkpoint=policy, faults=plan
    )
    _assert_matches_oracle(g, result.answer)
    f = result.metrics.faults
    assert f.crashes_injected == 1
    assert f.recoveries == 1
    assert f.rounds_lost >= 1
    assert f.recovery_supersteps == 1


def test_fatal_crash_without_checkpoint_fails_fast_naming_rounds():
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    engine = _engine(g)
    plan = FaultPlan(
        faults=(CrashFault(at_superstep=4, fatal=True),), seed=5
    )
    with pytest.raises(WorkerFailure, match=r"rounds 1\.\.\d+ are unrecoverable"):
        engine.run(SSSPProgram(), SSSPQuery(source=0), faults=plan)


def test_fatal_crash_before_first_checkpoint_names_missing_snapshot(tmp_path):
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    engine = _engine(g)
    plan = FaultPlan(
        faults=(CrashFault(at_superstep=2, fatal=True),), seed=5
    )
    # cadence so sparse the crash lands before any snapshot exists
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=50, tag="early")
    with pytest.raises(WorkerFailure, match="no snapshot persisted yet"):
        engine.run(
            SSSPProgram(), SSSPQuery(source=0), checkpoint=policy, faults=plan
        )


def test_exhausted_retries_escalate_to_fatal():
    g = road_network(8, 8, seed=3, removal_prob=0.0)
    engine = _engine(
        g, workers=2, supervision=SupervisionPolicy(max_retries=2)
    )
    # unlimited transient crashes on every compute: retries must run out
    plan = FaultPlan(
        faults=(CrashFault(probability=1.0, fatal=False, times=None),),
        seed=5,
    )
    with pytest.raises(FatalWorkerFailure, match="still failing after 2 retries"):
        engine.run(SSSPProgram(), SSSPQuery(source=0), faults=plan)


def test_straggler_delay_is_charged_as_simulated_time():
    g = road_network(10, 10, seed=4, removal_prob=0.0)
    plan = FaultPlan(
        faults=(StragglerFault(at_superstep=1, delay=0.5, times=1),), seed=5
    )
    baseline = _engine(g).run(SSSPProgram(), SSSPQuery(source=0))
    slowed = _engine(g).run(SSSPProgram(), SSSPQuery(source=0), faults=plan)
    _assert_matches_oracle(g, slowed.answer)
    f = slowed.metrics.faults
    assert f.stragglers_injected == 1
    assert f.straggler_delay == pytest.approx(0.5)
    assert (
        slowed.metrics.total_time
        >= baseline.metrics.total_time + 0.5 * 0.9
    )


def test_capped_backoff_doubles_then_caps():
    assert capped_backoff(1, 0.005, 0.006) == pytest.approx(0.005)
    assert capped_backoff(2, 0.005, 0.006) == pytest.approx(0.006)  # capped
    assert capped_backoff(10, 0.005, 0.006) == pytest.approx(0.006)
    assert [capped_backoff(r, 0.05, 1.0) for r in (1, 2, 3)] == [
        0.05, 0.1, 0.2,
    ]


def test_recovery_cap_enforced():
    policy = SupervisionPolicy(max_recoveries=2)
    supervisor = Supervisor(policy, FaultCounters())
    failure = FatalWorkerFailure("boom", worker=1, superstep=3)
    supervisor.begin_recovery(failure)
    supervisor.begin_recovery(failure)
    with pytest.raises(FatalWorkerFailure, match="giving up after 2"):
        supervisor.begin_recovery(failure)
    assert supervisor.counters.recoveries == 2


def test_supervisor_only_catches_worker_failures():
    """Programmer bugs must not be retried or masked by supervision."""

    class BuggySSSP(SSSPProgram):
        def inceval(self, fragment, query, partial, params, changed):
            raise ValueError("a real bug, not a failure")

    g = road_network(6, 6, seed=1, removal_prob=0.0)
    with pytest.raises(ValueError, match="a real bug"):
        _engine(g, workers=2).run(BuggySSSP(), SSSPQuery(source=0))


def test_failure_taxonomy():
    transient = TransientWorkerFailure("t", worker=1, superstep=2)
    fatal = FatalWorkerFailure("f", worker=1, superstep=2)
    assert isinstance(transient, WorkerFailure)
    assert isinstance(fatal, WorkerFailure)
    assert not transient.fatal
    assert fatal.fatal
    assert transient.worker == 1
    assert fatal.superstep == 2
