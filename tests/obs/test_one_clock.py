"""One virtual clock: the trace timeline and the engine agree on every
completed superstep.

``repro.obs.timeline`` prices strict steps with ``CostModel`` and
replays relaxed waves through ``PipelinedClocks``, feeding both what
the cluster fed them. The only thing the timeline adds is the nominal
width of a compute attempt (measured compute cannot enter a byte-stable
trace), so with ``COMPUTE_COST`` patched to zero under a deterministic
cost model a step lasts *exactly* its ``SuperstepMetrics.simulated_time``
— ``==``, not ``approx`` — in every mode, cold, after a ΔG batch, and
under compute faults with in-run recovery.
"""

import pytest

import repro.obs.timeline as timeline
from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.obs import Tracer, build_timeline
from repro.partition.registry import get_partitioner
from repro.runtime.costmodel import CostModel
from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault
from repro.storage.dfs import SimulatedDFS

MODES = [
    pytest.param("strict", "coordinator", id="strict-coordinator"),
    pytest.param("strict", "direct", id="strict-direct"),
    pytest.param("relaxed", "direct", id="relaxed"),
]
PROGRAMS = [
    pytest.param("sssp", {"source": 0}, id="sssp"),
    pytest.param("cc", {}, id="cc"),
]
BATCH = [("insert", 0, 100, 0.5), ("delete", 0, 1), ("reweight", 1, 2, 9.0)]
PLANS = {
    "transient+straggler": FaultPlan(
        faults=(
            CrashFault(at_superstep=2, fatal=False, times=2),
            StragglerFault(at_superstep=1, delay=0.05, times=3),
        ),
        seed=7,
    ),
    "fatal": FaultPlan(
        faults=(CrashFault(at_superstep=3, fatal=True),), seed=7
    ),
}


@pytest.fixture(autouse=True)
def _zero_width_attempts(monkeypatch):
    monkeypatch.setattr(timeline, "COMPUTE_COST", 0.0)


def _engine(mode, routing, tracer):
    graph = graph_from_spec("road:12x12")
    fragmented = build_fragments(
        graph, get_partitioner("hash")(graph, 4), 4, "hash"
    )
    return GrapeEngine(
        fragmented,
        cost_model=CostModel(deterministic=True),
        mode=mode,
        routing=routing,
        tracer=tracer,
    )


def _assert_same_clock(tracer, results):
    runs = build_timeline(tracer.events)
    assert len(runs) == len(results)
    for run, result in zip(runs, results):
        completed = [step for step in run.steps if not step.aborted]
        metered = result.metrics.supersteps
        assert [(s.index, s.phase) for s in completed] == [
            (m.index, m.phase) for m in metered
        ]
        assert [s.duration for s in completed] == [
            m.simulated_time for m in metered
        ]
        assert any(s.duration > 0 for s in completed)


@pytest.mark.parametrize(("mode", "routing"), MODES)
@pytest.mark.parametrize(("name", "params"), PROGRAMS)
def test_cold_run_and_delta_repair_share_the_engine_clock(
    name, params, mode, routing
):
    tracer = Tracer()
    engine = _engine(mode, routing, tracer)
    program, query = get_program(name), build_query(name, **params)
    cold = engine.run(program, query, keep_state=True)
    repaired = engine.run_incremental(program, query, cold.state, BATCH)
    assert repaired.repair.unsafe_ops  # strict phases before the waves
    _assert_same_clock(tracer, [cold, repaired])


@pytest.mark.parametrize(("mode", "routing"), MODES)
@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_faulted_run_shares_the_engine_clock(
    plan_name, mode, routing, tmp_path
):
    tracer = Tracer()
    engine = _engine(mode, routing, tracer)
    result = engine.run(
        get_program("sssp"),
        build_query("sssp", source=0),
        checkpoint=CheckpointPolicy(SimulatedDFS(tmp_path), every=1),
        faults=PLANS[plan_name],
    )
    counters = result.metrics.faults
    if plan_name == "fatal":
        assert counters.recoveries == 1  # a torn step and a recover phase
    else:
        assert counters.retries and counters.stragglers_injected
    _assert_same_clock(tracer, [result])
