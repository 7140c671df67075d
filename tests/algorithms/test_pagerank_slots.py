"""PageRank's update parameters are per-source slots, read by the owner.

``Slot((v, fid))`` is fragment ``fid``'s cumulative push toward its
mirror ``v``. ``FragmentedGraph.hosts`` routes a slot to ``v``'s owner
(and names the writer, which the coordinator's proposer filter and
direct routing's ``fid != wid`` both skip), so every message a worker
receives carries only slots of vertices it owns — under every routing,
with answers byte-identical across them. Recovery re-ships slots from
both ends (writer and owner), and must re-converge to the clean run.
"""

from __future__ import annotations

import pytest

from repro.algorithms.pagerank import PageRankProgram, PageRankQuery
from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.graph.fragment import Slot, build_fragments
from repro.graph.generators import power_law
from repro.partition.registry import get_partitioner
from repro.runtime.backends import SimulatedBackend
from repro.service.service import canonical_answer_bytes
from repro.storage.dfs import SimulatedDFS

NUM_WORKERS = 3
ROUTINGS = {
    f"{routing}-{mode}": {"routing": routing, "mode": mode}
    for routing in ("coordinator", "direct")
    for mode in ("strict", "relaxed")
}


def _fragmented(n: int = 120):
    graph = power_law(n)
    assignment = get_partitioner("hash")(graph, NUM_WORKERS)
    return graph, build_fragments(graph, assignment, NUM_WORKERS, "hash")


class OwnerOnly(SimulatedBackend):
    """Asserts each IncEval's mail holds only slots its worker owns."""

    delivered = 0

    def execute(self, step, supervisor, calls, on_result=None):
        for call in calls:
            if call.op != "inceval":
                continue
            for payload in call.args["payloads"]:
                for key in payload:
                    assert type(key) is Slot, key
                    vertex, writer = key
                    assert self.fragmented.owner_of(vertex) == call.wid
                    assert writer != call.wid
                    self.delivered += 1
        return super().execute(step, supervisor, calls, on_result)


def test_a_slot_is_hosted_by_its_vertex_owner_and_its_writer():
    _, fragmented = _fragmented()
    for frag in fragmented.fragments:
        for v in frag.mirrors:
            owner = fragmented.owner_of(v)
            assert owner != frag.fid
            assert fragmented.hosts(Slot((v, frag.fid))) == (owner, frag.fid)
    # A plain vertex key still reaches every copy.
    v = next(iter(fragmented.fragments[0].mirrors))
    assert fragmented.hosts(v) == fragmented.known_by[v]


def test_pagerank_mail_reaches_only_the_owner_under_every_routing():
    answers = set()
    for name, engine_kwargs in ROUTINGS.items():
        graph, fragmented = _fragmented()
        backend = OwnerOnly(fragmented)
        result = GrapeEngine(
            fragmented, backend=backend, check_monotonic=True,
            **engine_kwargs,
        ).run(PageRankProgram(graph.num_vertices), PageRankQuery())
        assert backend.delivered > 0, name
        assert result.checker.ok and result.checker.writes_seen > 0, name
        answers.add(canonical_answer_bytes(result.answer))
    assert len(answers) == 1


class CrashingPageRank(PageRankProgram):
    """Raises on a chosen IncEval invocation (simulated worker death)."""

    def __init__(self, total_vertices: int, crash_at_call: int) -> None:
        super().__init__(total_vertices)
        self.crash_at_call = crash_at_call
        self.calls = 0

    def inceval(self, fragment, query, partial, params, changed):
        self.calls += 1
        if self.calls == self.crash_at_call:
            raise ConnectionError("simulated worker failure")
        return super().inceval(fragment, query, partial, params, changed)


@pytest.mark.parametrize("routing", ["coordinator", "direct"])
@pytest.mark.parametrize("crash_at_call", [6, 9, 20, 40])
def test_pagerank_resumes_from_checkpoint_to_the_clean_answer(
    routing, crash_at_call, tmp_path
):
    graph, fragmented = _fragmented(200)
    query = PageRankQuery()
    clean = GrapeEngine(
        fragmented, routing=routing, check_monotonic=True
    ).run(PageRankProgram(graph.num_vertices), query)

    engine = GrapeEngine(fragmented, routing=routing, check_monotonic=True)
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
    assert recovered.checker.ok and recovered.checker.writes_seen > 0
    assert recovered.answer == clean.answer
