"""Answer checking: sequential oracles in replay 0, digests afterwards.

Replay 0 holds every answer against ``repro.algorithms.sequential`` on a
master graph the verifier mutates itself (so a wrong fragment mutation
cannot agree with its own oracle), and every post-ΔG answer against a
full recompute over the mutated fragments, byte for byte. The timed
replays only compare an order-independent digest with replay 0's —
cheap enough to run between operations, off the clock.
"""

from __future__ import annotations

from repro.algorithms.sequential import (
    connected_components,
    pagerank,
    single_source,
)
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.metrics import bfs_layers
from repro.runtime.costmodel import CostModel
from repro.service import canonical_answer_bytes

from benchmarks.ladder.workloads import mutate

INF = float("inf")

#: Replays must repeat exactly, so nothing measured may steer the engine
#: (the adaptive repair policy learns from metered compute otherwise).
DETERMINISTIC = CostModel(deterministic=True)


def program_for(cls: str, num_vertices: int):
    if cls == "pagerank":
        return get_program(cls, total_vertices=num_vertices)
    return get_program(cls)


def digest(answer: dict) -> int:
    """Order-independent digest of a vertex -> value answer."""
    return hash((len(answer), sum(map(hash, answer.items()))))


def matches_oracle(graph, cls: str, params: dict, answer: dict) -> bool:
    """Whether ``answer`` is the sequential algorithm's on ``graph``."""
    if cls == "sssp":
        oracle = single_source(graph, params["source"])
        return set(answer) <= set(oracle) and all(
            answer.get(v, INF) == d for v, d in oracle.items()
        )
    if cls == "bfs":
        oracle = bfs_layers(graph, params["source"])
        reached = {v: d for v, d in answer.items() if d < INF}
        return reached == {v: float(d) for v, d in oracle.items()}
    if cls == "cc":
        return answer == connected_components(graph)
    if cls == "pagerank":
        oracle = pagerank(graph, damping=params["damping"], tol=1e-10)
        slack = params["tolerance"] * graph.num_vertices
        return set(answer) <= set(oracle) and all(
            abs(answer.get(v, 0.0) - rank) <= slack
            for v, rank in oracle.items()
        )
    raise ValueError(f"no oracle for query class {cls!r}")


def full_recompute(fragmented, cls: str, params: dict, num_vertices: int):
    """The answer of a from-scratch run over the (mutated) fragments.

    Runs on an engine of its own, so the audit leaves no trace in the
    measured deployment's repair policy.
    """
    engine = GrapeEngine(fragmented, cost_model=DETERMINISTIC)
    return engine.run(
        program_for(cls, num_vertices), build_query(cls, **params)
    ).answer


class Verifier:
    """Replay 0's judge; remembers each operation's digest."""

    def __init__(self, graph, reference: dict | None = None) -> None:
        self.graph = graph.copy()
        #: Canonical answer bytes per operation from a simulated/dict
        #: session, when the workload must match one byte for byte.
        self.reference = reference
        #: Operation index (-1 = the cold query) -> digest.
        self.expected: dict = {}

    def _matches_reference(self, i: int, answers: dict) -> bool:
        if self.reference is None:
            return True
        return _canonical(answers) == self.reference.get(i)

    def query(self, i: int, op, answer) -> bool:
        self.expected[i] = digest(answer)
        return matches_oracle(
            self.graph, op.cls, op.args, answer
        ) and self._matches_reference(i, {op.cls: answer})

    def update(self, i: int, op, kept: dict, fragmented) -> bool:
        """``kept`` maps name -> (class, params, repaired answer)."""
        self.expected[i] = _kept_digest(kept)
        mutate(self.graph, op.args)
        n = self.graph.num_vertices
        ok = self._matches_reference(i, _answers(kept))
        for cls, params, answer in kept.values():
            ok = (
                ok
                and matches_oracle(self.graph, cls, params, answer)
                and canonical_answer_bytes(answer)
                == canonical_answer_bytes(
                    full_recompute(fragmented, cls, params, n)
                )
            )
        return ok


class Collector:
    """Judge that records canonical bytes (the simulated/dict reference)."""

    def __init__(self) -> None:
        self.answers: dict = {}

    def query(self, i: int, op, answer) -> bool:
        self.answers[i] = _canonical({op.cls: answer})
        return True

    def update(self, i: int, op, kept: dict, fragmented) -> bool:
        self.answers[i] = _canonical(_answers(kept))
        return True


class DigestJudge:
    """Timed replays' judge: same digest as replay 0, op for op."""

    def __init__(self, expected: dict) -> None:
        self._expected = expected

    def query(self, i: int, op, answer) -> bool:
        return digest(answer) == self._expected.get(i)

    def update(self, i: int, op, kept: dict, fragmented) -> bool:
        return _kept_digest(kept) == self._expected.get(i)


def _answers(kept: dict) -> dict:
    return {name: answer for name, (_, _, answer) in kept.items()}


def _kept_digest(kept: dict) -> tuple:
    return tuple(digest(a) for _, a in sorted(_answers(kept).items()))


def _canonical(answers: dict) -> bytes:
    return b"|".join(
        canonical_answer_bytes(answer) for _, answer in sorted(answers.items())
    )
