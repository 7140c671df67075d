"""PageRank's update parameters are per-owner columns, read by the owner.

``Slot((vertices, fid))`` is fragment ``fid``'s cumulative push toward
``vertices``, its mirrors of one other fragment, as a tuple: one column
per (writer → owner) pair. The routing table
(``FragmentedGraph.routes``) names that owner and the writer, which the
sender skips, so every message a worker receives carries only columns
of vertices it owns — in either superstep mode, with answers byte-identical
across them. The stock ``MAX`` keeps the newest column because a
column's totals only grow, so each newer tuple is lexicographically
larger; the audit checks exactly that. Recovery re-ships columns from
both ends (writer and owner), and must re-converge to the clean run.
The dataflow — pushes, supersteps, messages — is the one the per-mirror
scalars had.
"""

from __future__ import annotations

import itertools

import pytest

from repro.algorithms.pagerank import PageRankProgram, PageRankQuery
from repro.algorithms.sequential import pagerank
from repro.core.aggregators import MAX
from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.core.update_params import UpdateParams
from repro.engineapi.session import Session
from repro.graph.fragment import Slot, build_fragments
from repro.graph.generators import power_law, road_network
from repro.partition.registry import get_partitioner
from repro.runtime.backends import SimulatedBackend
from repro.runtime.costmodel import CostModel
from repro.service.service import canonical_answer_bytes
from repro.storage.dfs import SimulatedDFS

NUM_WORKERS = 3
#: The superstep modes; ``direct`` is the strict BSP column.
MODES = [
    pytest.param("strict", id="direct"),
    pytest.param("relaxed", id="relaxed"),
]


def _fragmented(n: int = 120, workers: int = NUM_WORKERS, seed: int = 0):
    graph = power_law(n, seed=seed)
    assignment = get_partitioner("hash")(graph, workers)
    return graph, build_fragments(graph, assignment, workers, "hash")


def _declared(fragment) -> frozenset:
    params = UpdateParams(MAX, None)
    PageRankProgram(1).declare_params(fragment, PageRankQuery(), params)
    return params.declared


class OwnerOnly(SimulatedBackend):
    """Asserts each IncEval's mail holds only columns its worker owns."""

    delivered = 0

    def execute(self, step, supervisor, calls, on_result=None):
        for call in calls:
            if call.op != "inceval":
                continue
            for payload in call.args["payloads"]:
                for key, totals in zip(*payload):
                    assert type(key) is Slot, key
                    vertices, writer = key
                    assert len(totals) == len(vertices)
                    assert all(
                        self.fragmented.owner_of(v) == call.wid
                        for v in vertices
                    )
                    assert writer != call.wid
                    self.delivered += 1
        return super().execute(step, supervisor, calls, on_result)


def test_a_slot_is_hosted_by_its_vertex_owner_and_its_writer():
    _, fragmented = _fragmented()
    for frag in fragmented.fragments:
        declared = _declared(frag)
        assert declared and all(type(s) is Slot for s in declared)
        covered = []
        for slot in declared:
            vertices, writer = slot
            assert writer == frag.fid
            owners = {fragmented.owner_of(v) for v in vertices}
            assert len(owners) == 1 and writer not in owners
            assert all(v in frag.mirrors for v in vertices)
            assert fragmented.routes[slot] == (owners.pop(), writer)
            covered.extend(vertices)
        # The columns partition the mirrors: each exactly once.
        assert sorted(covered) == sorted(frag.mirrors)
    # A plain vertex key still reaches every copy.
    v = next(iter(fragmented.fragments[0].mirrors))
    assert fragmented.routes[v] == {fragmented.owner_of(v)} | {
        f.fid for f in fragmented.fragments if v in f.mirrors
    }


def test_pagerank_mail_reaches_only_the_owner_under_every_routing():
    answers = set()
    for mode in ("strict", "relaxed"):
        graph, fragmented = _fragmented()
        backend = OwnerOnly(fragmented)
        result = GrapeEngine(
            fragmented, backend=backend, check_monotonic=True, mode=mode
        ).run(PageRankProgram(graph.num_vertices), PageRankQuery())
        assert backend.delivered > 0, mode
        assert result.checker.writes_seen > 0, mode
        answers.add(canonical_answer_bytes(result.answer))
    assert len(answers) == 1


class CrashingPageRank(PageRankProgram):
    """Raises on a chosen IncEval invocation (simulated worker death)."""

    def __init__(self, total_vertices: int, crash_at_call: int) -> None:
        super().__init__(total_vertices)
        self.crash_at_call = crash_at_call
        # One counter shared by every simulated worker, advanced in
        # place: rebinding `self.calls` in IncEval would be refused.
        self.calls = itertools.count(1)

    def inceval(self, fragment, query, partial, params, changed):
        if next(self.calls) == self.crash_at_call:
            raise ConnectionError("simulated worker failure")
        return super().inceval(fragment, query, partial, params, changed)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("crash_at_call", [6, 9, 20, 40])
def test_pagerank_resumes_from_checkpoint_to_the_clean_answer(
    mode, crash_at_call, tmp_path
):
    graph, fragmented = _fragmented(200)
    query = PageRankQuery()
    clean = GrapeEngine(
        fragmented, mode=mode, check_monotonic=True
    ).run(PageRankProgram(graph.num_vertices), query)

    engine = GrapeEngine(fragmented, mode=mode, check_monotonic=True)
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="pr")
    with pytest.raises(ConnectionError):
        engine.run(
            CrashingPageRank(graph.num_vertices, crash_at_call),
            query,
            checkpoint=policy,
        )
    assert policy.rounds_saved()  # died mid-fixpoint, after a snapshot

    recovered = engine.resume_from_checkpoint(
        PageRankProgram(graph.num_vertices), query, policy
    )
    assert recovered.checker.writes_seen > 0
    assert recovered.answer == clean.answer


@pytest.mark.parametrize(
    "damping,dataflow",
    [(0.5, (1737, 7023, 16, 152)), (0.85, (2038, 29178, 45, 503))],
)
def test_columns_keep_the_per_mirror_dataflow(damping, dataflow):
    """Pushes, supersteps and messages as recorded with one scalar per
    mirror: batching a pair's mirrors into a column moves no work."""
    graph, fragmented = _fragmented(400, workers=4, seed=7)
    metrics = GrapeEngine(
        fragmented, cost_model=CostModel(deterministic=True)
    ).run(
        PageRankProgram(graph.num_vertices), PageRankQuery(damping=damping)
    ).metrics
    assert (
        metrics.work("peval"),
        metrics.work("inceval"),
        len(metrics.supersteps),
        metrics.total_messages,
    ) == dataflow


EDGE_CASES = [
    pytest.param(power_law(120), 1, "hash", id="one-fragment"),
    pytest.param(power_law(5), 4, "hash", id="power5-x4"),
    pytest.param(road_network(6, 6), 3, "multilevel", id="road6x6-x3-ml"),
]


@pytest.mark.parametrize("backend", ["simulated", "process"])
@pytest.mark.parametrize("store", ["dict", "csr"])
@pytest.mark.parametrize("graph,workers,partition", EDGE_CASES)
def test_edge_cases_match_the_power_iteration(
    graph, workers, partition, store, backend
):
    """Every vertex left holds residual ≤ tolerance, folded into its
    rank; what that residual would still have pushed is at most d/(1-d)
    times it, so the total error is within tolerance·n·d/(1-d). (The
    ladder's per-vertex tolerance·n is looser on big graphs, and
    ``power_law(5)`` exceeds it: 8.3e-6 against 5e-6.)"""
    query = PageRankQuery()
    session = Session(
        graph, num_workers=workers, partition=partition, store=store,
        backend=backend, check_monotonic=True,
    )
    try:
        result = session.run(PageRankProgram(graph.num_vertices), query)
    finally:
        session.close()
    assert result.checker is not None  # a violation would have raised
    if workers == 1:
        assert result.metrics.total_messages == 0  # no mirrors, no columns
    d = query.damping
    oracle = pagerank(graph, damping=d, tol=1e-10)
    slack = query.tolerance * graph.num_vertices * d / (1 - d)
    assert set(result.answer) == set(oracle)
    assert sum(abs(result.answer[v] - r) for v, r in oracle.items()) <= slack
