"""Oracle equivalence: relaxed waves must be byte-identical to strict BSP.

The whole license for ``mode="relaxed"`` is the Assurance Theorem plus
one engineering invariant: a relaxed run may differ from its strict
oracle ONLY in scheduling, virtual-time makespan and span layout —
answers, per-round fixpoint traces, per-superstep traffic, repair
statistics and checkpointable state blobs are byte-identical. This
matrix pins that invariant across 4 monotone programs x seeded-random
ΔG batches x 2 fragment stores on the simulated backend, plus
process-backend spot checks; a final case asserts the makespan side of
the bargain on a deliberately skewed partition (relaxed strictly below
strict when IncEval rounds exist).

The oracle is strict mode on the SAME backend + store: it executes
relaxed mode's exact sends in the same order, so even dict insertion
order in the state blobs matches.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.delta import GraphDelta
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.partition.registry import get_partitioner
from repro.runtime.backends import make_backend
from repro.runtime.costmodel import CostModel
from repro.service.service import canonical_answer_bytes

GRAPH_SPEC = "road:8x8"
NUM_WORKERS = 3
BATCHES = 2

CASES = [
    ("sssp", {"source": 0}),
    ("bfs", {"source": 0}),
    ("cc", {}),
    ("kcore", {}),
]
STORES = ["dict", "csr"]


def _random_delta(rng: random.Random, edges: set, vertices: list) -> dict:
    """One mixed ΔG batch over the live edge set (kept in sync)."""
    pool = sorted(edges)
    deletes = rng.sample(pool, min(2, len(pool)))
    remaining = [e for e in pool if e not in set(deletes)]
    reweights = [
        (src, dst, round(rng.uniform(0.5, 4.0), 2))
        for src, dst in rng.sample(remaining, min(2, len(remaining)))
    ]
    inserts = []
    while len(inserts) < 2:
        src, dst = rng.sample(vertices, 2)
        if (src, dst) not in edges and (src, dst) not in {
            (s, d) for s, d, _ in inserts
        }:
            inserts.append((src, dst, round(rng.uniform(0.5, 4.0), 2)))
    for e in deletes:
        edges.discard(e)
    for src, dst, _ in inserts:
        edges.add((src, dst))
    return {
        "insert": [list(op) for op in inserts],
        "delete": [list(op) for op in deletes],
        "reweight": [list(op) for op in reweights],
    }


def _deltas(name: str, store: str) -> list[dict]:
    graph = graph_from_spec(GRAPH_SPEC)
    rng = random.Random(sum(map(ord, name + ":" + store)))
    edges = {(e.src, e.dst) for e in graph.edges()}
    vertices = sorted(graph.vertices())
    return [_random_delta(rng, edges, vertices) for _ in range(BATCHES)]


def _observed(result) -> tuple:
    """What one run contributes to the trail (see ``_run_sequence``)."""
    return (
        canonical_answer_bytes(result.answer),
        [
            (r.round_index, r.params_shipped, r.params_applied,
             r.active_workers)
            for r in result.rounds
        ],
        pickle.dumps((result.state.partials, result.state.params)),
        [
            (s.phase, s.messages_sent, s.bytes_sent)
            for s in result.metrics.supersteps
        ],
    )


def _run_sequence(mode, name, params, deltas, store="dict",
                  backend_name="simulated"):
    """Cold run + incremental batches in one mode; returns the trail.

    The trail carries everything the equivalence contract covers:
    canonical answer bytes, the RoundInfo fixpoint trace, a pickle of
    the checkpointable state (partials + params) — a byte-level proxy
    for checkpoint blobs — the per-superstep traffic (phase, messages,
    bytes: the two modes execute the same sends) and repair stats.
    """
    graph = graph_from_spec(GRAPH_SPEC)
    assignment = get_partitioner("hash")(graph, NUM_WORKERS)
    fragmented = build_fragments(
        graph, assignment, NUM_WORKERS, "hash", store=store
    )
    backend = make_backend(backend_name, fragmented, deterministic=True)
    engine = GrapeEngine(
        fragmented,
        cost_model=CostModel(deterministic=True),
        mode=mode,
        backend=backend,
    )
    program = get_program(name)
    query = build_query(name, **params)
    trail = []
    times = []
    try:
        result = engine.run(program, query, keep_state=True)
        trail.append(("cold",) + _observed(result))
        times.append(result.metrics.total_time)
        state = result.state
        for spec in deltas:
            inc = engine.run_incremental(
                program, query, state, GraphDelta.from_dict(spec)
            )
            state = inc.state
            trail.append(("inc",) + _observed(inc) + (inc.repair.as_dict(),))
            times.append(inc.metrics.total_time)
    finally:
        backend.close()
    return trail, times


@pytest.mark.parametrize("store", STORES)
@pytest.mark.parametrize("name,params", CASES)
def test_relaxed_matches_strict_oracle(name, params, store):
    deltas = _deltas(name, store)
    oracle, strict_times = _run_sequence(
        "strict", name, params, deltas, store=store
    )
    subject, relaxed_times = _run_sequence(
        "relaxed", name, params, deltas, store=store
    )
    assert len(oracle) == len(subject) == 1 + BATCHES
    for step, (want, got) in enumerate(zip(oracle, subject)):
        assert want == got, (
            f"{name}/{store} diverged at step {step} "
            f"({'cold' if step == 0 else f'batch {step}'})"
        )
    # Only scheduling may differ — and never for the worse: per-wave
    # drain handoffs cost at most the barrier they replace.
    for step, (st, rt) in enumerate(zip(strict_times, relaxed_times)):
        assert rt <= st + 1e-12, (name, store, step, st, rt)


@pytest.mark.parametrize("name,params", [("sssp", {"source": 0}), ("cc", {})])
def test_relaxed_process_backend_matches_strict_process(name, params):
    deltas = _deltas(name, "dict")
    oracle, _ = _run_sequence(
        "strict", name, params, deltas, backend_name="process"
    )
    subject, _ = _run_sequence(
        "relaxed", name, params, deltas, backend_name="process"
    )
    for step, (want, got) in enumerate(zip(oracle, subject)):
        assert want == got, (name, "process", step)


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
                        (c.wid, [list(p.items()) for p in c.args["payloads"]])
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
