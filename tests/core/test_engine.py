"""Unit tests for the GRAPE engine's fixed-point machinery.

Uses a deliberately tiny PIE program (boolean reachability with a BFS
PEval and incremental BFS IncEval) so the engine's behavior — routing,
termination, tracing, monotonicity enforcement, routing modes — can be
asserted independently of the production algorithms.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core import termination
from repro.core.aggregators import BOOL_OR, MAX
from repro.core.engine import GrapeEngine
from repro.core.pie import ParamSpec, PIEProgram
from repro.errors import EngineRuntimeError, MonotonicityError
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments


class ReachProgram(PIEProgram):
    """Boolean reachability from a source — minimal monotone PIE."""

    name = "reach"

    def param_spec(self, query):
        return ParamSpec(aggregator=BOOL_OR, default=False)

    def _bfs(self, fragment, partial, seeds):
        queue = deque(s for s in seeds if s in fragment.graph)
        for s in queue:
            partial[s] = True
        while queue:
            v = queue.popleft()
            for u in fragment.graph.out_neighbors(v):
                if not partial.get(u):
                    partial[u] = True
                    queue.append(u)

    def peval(self, fragment, query, params):
        partial: dict = {}
        if query in fragment.graph:
            self._bfs(fragment, partial, [query])
        for v in fragment.border:
            if partial.get(v):
                params.improve(v, True)
        return partial

    def inceval(self, fragment, query, partial, params, changed):
        self._bfs(fragment, partial, list(changed))
        for v in fragment.border:
            if partial.get(v):
                params.improve(v, True)
        return partial

    def assemble(self, query, partials):
        reached = set()
        for partial in partials:
            reached |= {v for v, flag in partial.items() if flag}
        return reached


class NonMonotoneProgram(ReachProgram):
    """Writes a *decrease* under a MAX aggregator — violates the order."""

    name = "bad"

    def param_spec(self, query):
        return ParamSpec(aggregator=MAX, default=0)

    def peval(self, fragment, query, params):
        # Per-fragment values guarantee at least one IncEval round.
        for v in fragment.border:
            params.set(v, 10 + fragment.fid)
        return {}

    def inceval(self, fragment, query, partial, params, changed):
        for v in changed:
            params.set(v, params.get(v) - 1)  # decreasing under MAX: bad
        return partial


class EndlessProgram(ReachProgram):
    """Monotone but unbounded: parameters increase forever."""

    name = "endless"

    def param_spec(self, query):
        return ParamSpec(aggregator=MAX, default=0)

    def peval(self, fragment, query, params):
        for v in fragment.border:
            params.set(v, 10 + fragment.fid)
        return {}

    def inceval(self, fragment, query, partial, params, changed):
        for v in changed:
            params.set(v, params.get(v) + 1)  # never reaches a fixpoint
        return partial


def _chain_fragments(n_parts=3):
    g = Graph()
    for i in range(8):
        g.add_edge(i, i + 1)
    assignment = {v: min(v // 3, n_parts - 1) for v in g.vertices()}
    return g, build_fragments(g, assignment, n_parts)


def test_reachability_crosses_fragments():
    g, fragd = _chain_fragments()
    result = GrapeEngine(fragd).run(ReachProgram(), 0)
    assert result.answer == set(range(9))


def test_unreachable_parts_stay_unreached():
    g, fragd = _chain_fragments()
    result = GrapeEngine(fragd).run(ReachProgram(), 5)
    assert result.answer == set(range(5, 9))


def test_single_fragment_no_inceval_rounds():
    g = Graph()
    g.add_edge(0, 1)
    fragd = build_fragments(g, {0: 0, 1: 0}, 1)
    result = GrapeEngine(fragd).run(ReachProgram(), 0)
    assert result.answer == {0, 1}
    assert result.rounds == []
    phases = [s.phase for s in result.metrics.supersteps]
    assert phases == ["peval", "assemble"]


def test_rounds_trace_records_shipping():
    _, fragd = _chain_fragments()
    result = GrapeEngine(fragd).run(ReachProgram(), 0)
    assert result.rounds  # multi-fragment chain needs IncEval rounds
    assert all(r.params_shipped >= 0 for r in result.rounds)
    assert result.rounds[-1].params_shipped == 0  # fixpoint round


def test_fixpoint_trace_monotone_activity():
    _, fragd = _chain_fragments()
    result = GrapeEngine(fragd).run(ReachProgram(), 0)
    # Reachability on a chain activates one fragment at a time.
    assert all(r.active_workers <= 1 for r in result.rounds)


def test_metrics_phases_present():
    _, fragd = _chain_fragments()
    result = GrapeEngine(fragd).run(ReachProgram(), 0)
    breakdown = result.metrics.phase_breakdown()
    assert {"peval", "inceval", "assemble"} <= set(breakdown)


def test_monotonic_checker_passes_good_program():
    _, fragd = _chain_fragments()
    engine = GrapeEngine(fragd, check_monotonic=True)
    result = engine.run(ReachProgram(), 0)
    assert result.checker is not None
    assert result.checker.writes_seen > 0


def test_monotonic_checker_catches_bad_program():
    _, fragd = _chain_fragments()
    engine = GrapeEngine(fragd, check_monotonic=True)
    with pytest.raises(MonotonicityError):
        engine.run(NonMonotoneProgram(), 0)


def test_superstep_cap_stops_nonterminating_program(monkeypatch):
    monkeypatch.setattr(termination, "MAX_SUPERSTEPS", 4)
    _, fragd = _chain_fragments()
    engine = GrapeEngine(fragd)
    with pytest.raises(EngineRuntimeError, match="fixed point"):
        engine.run(EndlessProgram(), 0)


def test_communication_confined_to_border_changes():
    """Example-1 claim (c): bytes flow only for changed border variables."""
    _, fragd = _chain_fragments()
    result = GrapeEngine(fragd).run(ReachProgram(), 0)
    # Chain with 2 cross edges: at most a handful of parameter messages.
    assert result.metrics.total_messages <= 12


def test_result_total_time_positive():
    _, fragd = _chain_fragments()
    result = GrapeEngine(fragd).run(ReachProgram(), 0)
    assert result.total_time > 0
    assert result.num_supersteps == result.metrics.num_supersteps
