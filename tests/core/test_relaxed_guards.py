"""Typed guards around ``mode="relaxed"``.

Relaxed supersteps are only licensed for aggregator-monotone programs
(the Assurance Theorem's precondition), and fault injection — a
strict-simulator-only instrument — must refuse to combine with them.
Every refusal is a typed error raised at construction or bind time,
never a silent downgrade. The runtime monotonicity checker is per
write, so it combines with relaxed mode and sees strict-direct's writes.
"""

from __future__ import annotations

import pytest

from repro.core.aggregators import LAST_WRITE
from repro.core.engine import MODES, GrapeEngine
from repro.core.pie import ParamSpec, PIEProgram
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.errors import AnalysisError, ProgramError
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec, road_network
from repro.partition.registry import get_partitioner
from repro.runtime.faults import FaultPlan
from repro.service.service import canonical_answer_bytes


class LastWriteProgram(PIEProgram):
    """Unordered aggregator: ineligible for relaxed supersteps."""

    name = "last-write-fixture"

    def param_spec(self, query):
        return ParamSpec(aggregator=LAST_WRITE, default=None)

    def peval(self, fragment, query, params):
        return {}

    def inceval(self, fragment, query, partial, params, changed):
        return partial

    def assemble(self, query, partials):
        return {}


def _fragmented(workers: int = 2):
    graph = graph_from_spec("road:4x4")
    assignment = get_partitioner("hash")(graph, workers)
    return build_fragments(graph, assignment, workers, "hash")


def test_modes_catalog():
    assert MODES == ("strict", "relaxed")


def test_unknown_mode_is_a_typed_constructor_error():
    with pytest.raises(ProgramError, match="unknown superstep mode"):
        GrapeEngine(_fragmented(), mode="chaotic")


def test_relaxed_check_monotonic_matches_strict_direct():
    """The checker observes each write, not each barrier: relaxed mode
    runs strict-direct's dataflow, so it sees exactly the same writes."""
    graph = road_network(12, 12, seed=3)
    assignment = get_partitioner("hash")(graph, 4)

    def checked(name, params, **engine_kwargs):
        engine = GrapeEngine(
            build_fragments(graph, assignment, 4, "hash"),
            check_monotonic=True,
            **engine_kwargs,
        )
        result = engine.run(get_program(name), build_query(name, **params))
        return (
            result.checker.writes_seen,
            result.checker.ok,
            len(result.rounds),
            canonical_answer_bytes(result.answer),
        )

    for name, params in [
        ("sssp", {"source": 0}),
        ("bfs", {"source": 0}),
        ("cc", {}),
        ("kcore", {}),
    ]:
        strict = checked(name, params, routing="direct")
        writes_seen, ok = strict[:2]
        assert writes_seen > 0 and ok
        assert checked(name, params, mode="relaxed") == strict


def test_relaxed_refuses_fault_injection():
    engine = GrapeEngine(_fragmented(), mode="relaxed")
    with pytest.raises(ProgramError, match="strict-BSP-simulator-only"):
        engine.run(
            get_program("sssp"),
            build_query("sssp", source=0),
            faults=FaultPlan(),
        )


def test_bind_gate_names_the_offending_aggregator():
    engine = GrapeEngine(_fragmented(), mode="relaxed")
    with pytest.raises(AnalysisError, match="GRP601") as exc:
        engine.run(LastWriteProgram(), None)
    message = str(exc.value)
    assert "'LAST_WRITE'" in message
    assert "LastWriteProgram" in message
    assert "'unordered'" in message


def test_bind_gate_flags_unresolvable_direction_as_grp602():
    program = get_program("pagerank", total_vertices=16)
    engine = GrapeEngine(_fragmented(), mode="relaxed")
    with pytest.raises(AnalysisError, match="GRP602"):
        engine.run(program, build_query("pagerank"))


def test_strict_mode_still_accepts_everything():
    engine = GrapeEngine(_fragmented(), check_monotonic=True)
    result = engine.run(get_program("sssp"), build_query("sssp", source=0))
    assert result.answer
