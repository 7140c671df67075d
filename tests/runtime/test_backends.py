"""Unit contract of ``repro.runtime.backends``: construction, guards,
pickle diagnostics, pool lifecycle, and the ``wall_ms`` span field.
"""

from __future__ import annotations

import pytest

from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.engine import GrapeEngine
from repro.errors import EngineRuntimeError, ProgramError
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.obs import Tracer
from repro.partition.registry import get_partitioner
from repro.runtime.backends import (
    BACKENDS,
    ProcessBackend,
    SimulatedBackend,
    make_backend,
)
from repro.runtime.costmodel import CostModel
from repro.runtime.faults import FaultPlan
from repro.service.service import canonical_answer_bytes


@pytest.fixture(scope="module")
def fragmented():
    graph = graph_from_spec("road:6x6")
    return build_fragments(
        graph, get_partitioner("hash")(graph, 2), 2, strategy="hash"
    )


def test_registry_names():
    assert BACKENDS == ("simulated", "process")


def test_make_backend_unknown_name(fragmented):
    with pytest.raises(ProgramError, match="unknown execution backend"):
        make_backend("threads", fragmented)


def test_make_backend_builds_each_kind(fragmented):
    simulated = make_backend("simulated", fragmented)
    assert isinstance(simulated, SimulatedBackend)
    process = make_backend("process", fragmented)
    assert isinstance(process, ProcessBackend)
    process.close()


def test_engine_rejects_foreign_fragmentation(fragmented):
    other = build_fragments(
        graph_from_spec("road:6x6"),
        get_partitioner("hash")(graph_from_spec("road:6x6"), 2),
        2,
        strategy="hash",
    )
    backend = SimulatedBackend(other)
    with pytest.raises(ProgramError, match="different FragmentedGraph"):
        GrapeEngine(fragmented, backend=backend)


def test_process_backend_monotonicity_check_equals_simulator(fragmented):
    """The audit runs worker-side and rides the op reply home: same
    answer bytes, same writes checked, same verdict."""
    seen = {}
    for name in BACKENDS:
        backend = make_backend(name, fragmented)
        engine = GrapeEngine(fragmented, backend=backend, check_monotonic=True)
        try:
            result = engine.run(SSSPProgram(), SSSPQuery(source=0))
        finally:
            backend.close()
        seen[name] = (
            canonical_answer_bytes(result.answer),
            result.checker.writes_seen,
            result.checker.ok,
        )
    assert seen["process"] == seen["simulated"]
    assert seen["simulated"][1] > 0 and seen["simulated"][2]


def test_process_backend_rejects_fault_injection(fragmented):
    backend = ProcessBackend(fragmented)
    engine = GrapeEngine(fragmented, backend=backend)
    plan = FaultPlan.from_dict(
        {"seed": 7, "faults": [{"kind": "crash", "worker": 0,
                                "at_superstep": 1}]}
    )
    try:
        with pytest.raises(ProgramError, match="fault"):
            engine.run(SSSPProgram(), SSSPQuery(source=0), faults=plan)
    finally:
        backend.close()


class _LambdaProgram(SSSPProgram):
    """Unpicklable the moment it is built: GRP501 in its worst form."""

    def __init__(self):
        super().__init__()
        self.trap = lambda v: v


def test_pickle_failure_diagnostics_name_the_lint_family(fragmented):
    backend = ProcessBackend(fragmented)
    engine = GrapeEngine(fragmented, backend=backend)
    try:
        with pytest.raises((ProgramError, EngineRuntimeError), match="GRP5"):
            engine.run(_LambdaProgram(), SSSPQuery(source=0))
    finally:
        backend.close()


def test_pool_survives_a_failed_run(fragmented):
    backend = ProcessBackend(fragmented)
    engine = GrapeEngine(fragmented, backend=backend)
    try:
        with pytest.raises((ProgramError, EngineRuntimeError)):
            engine.run(_LambdaProgram(), SSSPQuery(source=0))
        result = engine.run(SSSPProgram(), SSSPQuery(source=0))
        assert result.answer
    finally:
        backend.close()


def test_close_is_idempotent_and_final(fragmented):
    backend = ProcessBackend(fragmented)
    engine = GrapeEngine(fragmented, backend=backend)
    engine.run(SSSPProgram(), SSSPQuery(source=0))
    backend.close()
    backend.close()
    with pytest.raises(EngineRuntimeError, match="closed"):
        engine.run(SSSPProgram(), SSSPQuery(source=0))


def test_sync_effects_before_start_is_lazy(fragmented):
    backend = ProcessBackend(fragmented)
    try:
        # No pool yet: effects are a no-op because workers will pickle
        # the already-mutated fragments at startup.
        backend.sync_effects({0: [("add_vertex", 999, None)]})
        assert backend._procs is None
    finally:
        backend.close()


def _traced_run(fragmented, backend_name, deterministic):
    tracer = Tracer()
    backend = make_backend(
        backend_name, fragmented, deterministic=deterministic
    )
    engine = GrapeEngine(
        fragmented,
        cost_model=CostModel(deterministic=deterministic),
        backend=backend,
        tracer=tracer,
    )
    try:
        engine.run(SSSPProgram(), SSSPQuery(source=0))
    finally:
        backend.close()
    return tracer.select("step_end")


def test_wall_ms_absent_on_deterministic_runs(fragmented):
    for name in BACKENDS:
        steps = _traced_run(fragmented, name, deterministic=True)
        assert steps
        assert all("wall_ms" not in ev for ev in steps), name


def test_wall_ms_present_on_wall_measuring_process_runs(fragmented):
    steps = _traced_run(fragmented, "process", deterministic=False)
    assert steps
    assert all(
        isinstance(ev.get("wall_ms"), float) and ev["wall_ms"] >= 0.0
        for ev in steps
    )
