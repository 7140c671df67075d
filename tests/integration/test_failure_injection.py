"""Failure injection: broken programs fail loudly, not silently.

The engine runs user-supplied sequential code; these tests verify that
errors raised inside PEval/IncEval/Assemble propagate to the caller
(instead of producing partial answers) and that contract violations are
reported as typed errors the caller can act on.
"""

import pytest

from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.aggregators import MIN
from repro.core.pie import ParamSpec, PIEProgram
from repro.errors import GrapeError, ProgramError
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.core.engine import GrapeEngine
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner

INF = float("inf")


def _engine(workers=3):
    g = road_network(6, 6, seed=1)
    assignment = get_partitioner("hash")(g, workers)
    return GrapeEngine(build_fragments(g, assignment, workers))


class _Base(PIEProgram):
    name = "faulty"

    def param_spec(self, query):
        return ParamSpec(aggregator=MIN, default=INF)

    def peval(self, fragment, query, params):
        return {}

    def inceval(self, fragment, query, partial, params, changed):
        return partial

    def assemble(self, query, partials):
        return {}


def test_peval_crash_propagates():
    class Crash(_Base):
        def peval(self, fragment, query, params):
            raise ZeroDivisionError("boom in user code")

    with pytest.raises(ZeroDivisionError, match="boom"):
        _engine().run(Crash(), None)


def test_inceval_crash_propagates():
    class Crash(SSSPProgram):
        def inceval(self, fragment, query, partial, params, changed):
            raise ValueError("inceval exploded")

    with pytest.raises(ValueError, match="inceval exploded"):
        _engine().run(Crash(), SSSPQuery(source=0))


def test_assemble_crash_propagates():
    class Crash(SSSPProgram):
        def assemble(self, query, partials):
            raise KeyError("assemble exploded")

    with pytest.raises(KeyError):
        _engine().run(Crash(), SSSPQuery(source=0))


def test_write_to_undeclared_parameter_is_programerror():
    class WritesWild(_Base):
        def peval(self, fragment, query, params):
            params.set("not-a-border-vertex", 1.0)
            return {}

    with pytest.raises(ProgramError, match="undeclared"):
        _engine().run(WritesWild(), None)


def test_errors_share_base_class():
    class WritesWild(_Base):
        def peval(self, fragment, query, params):
            params.set("nope", 1.0)
            return {}

    with pytest.raises(GrapeError):
        _engine().run(WritesWild(), None)


def test_crash_on_one_worker_only_still_propagates():
    class CrashOnTwo(_Base):
        def peval(self, fragment, query, params):
            if fragment.fid == 2:
                raise RuntimeError("worker 2 died")
            return {}

    with pytest.raises(RuntimeError, match="worker 2"):
        _engine(workers=3).run(CrashOnTwo(), None)


def test_bad_message_payload_is_isolated_to_programs():
    """Programs cannot corrupt the routing layer: payloads they export
    travel through UpdateParams, which rejects undeclared writes, so a
    malformed 'message' cannot even be constructed."""
    g = Graph()
    g.add_edge(0, 1)
    fragd = build_fragments(g, {0: 0, 1: 1}, 2)

    class Sneaky(_Base):
        def peval(self, fragment, query, params):
            # the only way to emit data is through declared parameters
            for v in fragment.border:
                params.improve(v, 1.0)
            return {}

    result = GrapeEngine(fragd).run(Sneaky(), None)
    assert result.answer == {}


def test_incremental_on_missing_state_fails_cleanly():
    engine = _engine()
    program = SSSPProgram()
    result = engine.run(program, SSSPQuery(source=0))  # no keep_state
    from repro.core.delta import EdgeInsert
    from repro.errors import StaleStateError

    with pytest.raises(StaleStateError, match="keep_state=True"):
        engine.run_incremental(
            program, SSSPQuery(source=0), result.state,
            [EdgeInsert(0, 1)],
        )
