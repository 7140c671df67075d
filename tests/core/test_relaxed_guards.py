"""Typed guards around ``mode="relaxed"``.

Relaxed supersteps are only licensed for programs whose declared
aggregator carries a partial order (the Assurance Theorem's
precondition); an ``UNORDERED`` one is refused. Every refusal is a typed
error raised at construction or bind time, never a silent downgrade. The
runtime monotonicity checker is per write and fault recovery replays
the fixpoint's rounds, so both combine with relaxed mode and see
strict mode's writes, rounds and recoveries. Two scheduling pins close
the file: relaxed mode beats the barrier on a skewed partition, and
barrier-phase mail reaches the first wave in strict mailbox order.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.keyword import TUPLE_MIN
from repro.baselines.pregel_as_pie import VertexCentricAsPIE
from repro.baselines.pregel_programs import PregelSSSP
from repro.core.aggregators import LAST_WRITE
from repro.core.checkpoint import CheckpointPolicy
from repro.core.delta import GraphDelta
from repro.core.engine import MODES, GrapeEngine
from repro.core.pie import ParamSpec, PIEProgram
from repro.engineapi.chaos import standard_plans
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.errors import ProgramError
from repro.graph.fragment import build_fragments
from repro.graph.generators import (
    bipartite_ratings,
    graph_from_spec,
    road_network,
)
from repro.obs import Tracer
from repro.partition.registry import get_partitioner
from repro.runtime.backends import SimulatedBackend
from repro.runtime.costmodel import CostModel
from repro.runtime.message import COORDINATOR
from repro.service.service import canonical_answer_bytes
from repro.storage.dfs import SimulatedDFS

GRAPH_SPEC = "road:8x8"
NUM_WORKERS = 3


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
    runs strict mode's dataflow, so it sees exactly the same writes."""
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
            len(result.rounds),
            canonical_answer_bytes(result.answer),
        )

    for name, params in [
        ("sssp", {"source": 0}),
        ("bfs", {"source": 0}),
        ("cc", {}),
        ("kcore", {}),
    ]:
        strict = checked(name, params)
        writes_seen, ok = strict[:2]
        assert writes_seen > 0 and ok
        assert checked(name, params, mode="relaxed") == strict


def test_relaxed_fault_injection_matches_strict_direct(tmp_path):
    """Relaxed mode runs the same ``_fixpoint`` rounds over the same
    sends, so every fault class — compute (crash, straggler) and wire
    (drop, duplicate, corrupt) — draws, retries and recovers exactly as
    in strict mode: the whole trail is byte-identical."""
    graph = road_network(9, 9, seed=6, removal_prob=0.0)
    assignment = get_partitioner("bfs")(graph, 3)

    def faulted(plan_name, plan, **engine_kwargs):
        engine = GrapeEngine(
            build_fragments(graph, assignment, 3, "bfs"), **engine_kwargs
        )
        result = engine.run(
            get_program("sssp"),
            build_query("sssp", source=0),
            keep_state=True,
            checkpoint=CheckpointPolicy(
                SimulatedDFS(tmp_path),
                every=1,
                tag=f"{plan_name}-{engine.mode}",
            ),
            faults=plan,
        )
        return (
            canonical_answer_bytes(result.answer),
            [
                (r.round_index, r.params_shipped, r.params_applied,
                 r.active_workers)
                for r in result.rounds
            ],
            result.metrics.faults.as_dict(),
            pickle.dumps((result.state.partials, result.state.params)),
            [
                (s.phase, s.messages_sent, s.bytes_sent)
                for s in result.metrics.supersteps
            ],
        )

    # Each plan actually bit: the counter of its class, on this graph.
    bites = {
        "crash-fatal": ("crashes_injected", 1),
        "crash-transient": ("crashes_injected", 2),
        "straggler": ("stragglers_injected", 3),
        "drop": ("drops_injected", 8),
        "duplicate": ("duplicates_injected", 4),
        "corrupt": ("corruptions_injected", 8),
    }
    plans = standard_plans(seed=7)
    assert sorted(plans) == sorted(bites)
    for plan_name, plan in sorted(plans.items()):
        strict = faulted(plan_name, plan)
        relaxed = faulted(plan_name, plan, mode="relaxed")
        counter, fired = bites[plan_name]
        assert strict[2][counter] == fired, plan_name
        assert relaxed == strict, plan_name


@pytest.mark.parametrize("mode", MODES)
def test_one_routing_contract(mode):
    """Workers ship border values to the peers hosting them and P0
    nothing, in either mode: every message a tracer saw sent is one a
    worker's IncEval received, and no rank but the workers ever sends.
    CF's unordered aggregator is refused relaxed, so it runs strict
    only."""

    class Counting(SimulatedBackend):
        received = 0

        def execute(self, step, supervisor, calls, on_result=None):
            self.received += sum(
                len(c.args["payloads"]) for c in calls if c.op == "inceval"
            )
            return super().execute(step, supervisor, calls, on_result)

    road = road_network(8, 8, seed=3)
    power = graph_from_spec("power:120")
    cases = [
        ("sssp", {"source": 0}, road, {}),
        ("cc", {}, road, {}),
        ("pagerank", {}, power, {"total_vertices": power.num_vertices}),
    ]
    if mode == "strict":
        cases.append(("cf", {"epochs": 3}, bipartite_ratings(30, 20), {}))
    for name, params, graph, program_kwargs in cases:
        assignment = get_partitioner("hash")(graph, 3)
        fragmented = build_fragments(graph, assignment, 3, "hash")
        backend = Counting(fragmented)
        tracer = Tracer()
        result = GrapeEngine(
            fragmented, backend=backend, tracer=tracer, mode=mode
        ).run(get_program(name, **program_kwargs), build_query(name, **params))
        sends = [ev["sends"] for ev in tracer.select("step_end")]
        assert all(COORDINATOR not in by_src for by_src in sends), name
        sent = sum(n for by_src in sends for n, _ in by_src.values())
        assert sent == result.metrics.total_messages > 0, name
        assert backend.received == sent, name


def test_bind_gate_names_the_offending_aggregator():
    engine = GrapeEngine(_fragmented(), mode="relaxed")
    for program, aggregator in [
        (LastWriteProgram(), "last-write"),
        (VertexCentricAsPIE(PregelSSSP(source=0), 16), "message-batches"),
    ]:
        with pytest.raises(ProgramError, match="unordered") as exc:
            engine.run(program, None)
        message = str(exc.value)
        assert repr(aggregator) in message
        assert type(program).__name__ in message


def test_bind_gate_admits_a_custom_declared_order():
    """Keyword's ``TUPLE_MIN`` declares its own partial order
    (componentwise-decreasing); the gate reads the declaration, not a
    name."""
    graph = graph_from_spec("social:120")
    assignment = get_partitioner("hash")(graph, 3)
    program = get_program("keyword")
    query = build_query("keyword", keywords=["person", "product"])
    assert program.param_spec(query).aggregator is TUPLE_MIN

    def run(**engine_kwargs):
        fragmented = build_fragments(graph, assignment, 3, "hash")
        return GrapeEngine(fragmented, **engine_kwargs).run(program, query)

    relaxed, strict = run(mode="relaxed"), run()
    assert relaxed.answer
    assert canonical_answer_bytes(relaxed.answer) == canonical_answer_bytes(
        strict.answer
    )


def test_strict_mode_still_accepts_everything():
    engine = GrapeEngine(_fragmented(), check_monotonic=True)
    result = engine.run(get_program("sssp"), build_query("sssp", source=0))
    assert result.answer


def test_relaxed_reclaims_makespan_on_skewed_partition():
    """On a skewed partition the pipeline must beat the barrier.

    All fixpoint traffic is identical (asserted above), so any makespan
    delta is pure scheduling: per-channel drains let light fragments
    run ahead instead of idling at the heavy fragment's barrier.
    """
    graph = graph_from_spec("road:12x12")
    vertices = sorted(graph.vertices())
    cut = len(vertices) // 8
    assignment = {}
    for i, v in enumerate(vertices):
        if i < cut:
            assignment[v] = 1 + (i % (NUM_WORKERS - 1))
        else:
            assignment[v] = 0  # one heavy straggler fragment
    results = {}
    for mode in ("strict", "relaxed"):
        fragmented = build_fragments(graph, assignment, NUM_WORKERS, "skewed")
        engine = GrapeEngine(
            fragmented,
            cost_model=CostModel(deterministic=True),
            mode=mode,
        )
        result = engine.run(get_program("sssp"), build_query("sssp", source=0))
        results[mode] = result
    strict, relaxed = results["strict"], results["relaxed"]
    assert canonical_answer_bytes(strict.answer) == canonical_answer_bytes(
        relaxed.answer
    )
    assert len(strict.rounds) == len(relaxed.rounds) > 0
    assert relaxed.metrics.total_time < strict.metrics.total_time


def test_first_wave_payload_order_matches_strict_direct_mailbox():
    """Regression: barrier-phase mail reaches IncEval in mailbox order.

    A ΔG batch with both an unsafe op (scoped ``repair`` phase) and a
    monotone-safe one (``update`` phase) ships twice before the first
    wave, from two senders into each receiver. The strict mailbox
    delivers phase-major (all repair mail, then all update
    mail); a per-source drain interleaves them — same values, different
    payload list.
    """
    from repro.runtime.backends import SimulatedBackend

    class Recording(SimulatedBackend):
        def execute(self, step, supervisor, calls, on_result=None):
            self.log.append(
                (
                    step.phase,
                    [
                        (c.wid, [list(zip(*p)) for p in c.args["payloads"]])
                        for c in calls
                        if c.op == "inceval"
                    ],
                )
            )
            return super().execute(step, supervisor, calls, on_result)

    delta = {
        "insert": [[9, 36, 0.5], [10, 50, 0.5]],
        "delete": [[54, 62], [61, 62], [53, 61]],
        "reweight": [],
    }
    first_round = {}
    for mode in ("strict", "relaxed"):
        graph = graph_from_spec(GRAPH_SPEC)
        assignment = get_partitioner("hash")(graph, NUM_WORKERS)
        fragmented = build_fragments(graph, assignment, NUM_WORKERS, "hash")
        backend = Recording(fragmented)
        backend.log = []
        engine = GrapeEngine(
            fragmented,
            cost_model=CostModel(deterministic=True),
            mode=mode,
            backend=backend,
        )
        program = get_program("sssp")
        query = build_query("sssp", source=0)
        cold = engine.run(program, query, keep_state=True)
        backend.log.clear()
        inc = engine.run_incremental(
            program, query, cold.state, GraphDelta.from_dict(delta)
        )
        assert inc.repair.mode == "scoped"
        assert inc.repair.safe_ops and inc.repair.unsafe_ops
        phases = [phase for phase, _ in backend.log]
        assert phases.index("repair") < phases.index("update")
        first_round[mode] = next(
            calls for phase, calls in backend.log if phase == "inceval"
        )
    # The case is only a regression if some receiver hears from two
    # senders in both barrier phases (>= 4 payloads).
    assert any(len(payloads) >= 4 for _, payloads in first_round["strict"])
    assert first_round["relaxed"] == first_round["strict"]
