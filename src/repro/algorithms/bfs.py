"""PIE program for BFS hop distances / reachability (library extension).

SSSP with unit edge weights — literally: :class:`BFSProgram` is
:class:`~repro.algorithms.sssp.SSSPProgram`'s relax -> publish skeleton
(PEval, IncEval, the ΔG hooks, Assemble) with the other textbook kernel
bound (:func:`~repro.algorithms.sequential.slots.bfs_slots`, over the
same slot view). Plain queue-based BFS is cheaper than Dijkstra and a
natural demonstration that the PIE engine is agnostic to which
sequential algorithm is plugged in. The answer maps every vertex to its
hop distance from the source (unreachable vertices are absent);
``reachable_from`` derives the reachability set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.algorithms.sequential.slots import bfs_slots
from repro.algorithms.sssp import INF, SSSPProgram

VertexId = Hashable


@dataclass(frozen=True)
class BFSQuery:
    """Hop distances from ``source`` along out-edges, at most
    ``max_depth`` hops deep (None: unbounded; else an integer >= 0)."""

    source: VertexId
    max_depth: int | None = None

    def __post_init__(self) -> None:
        depth = self.max_depth
        if depth is not None and (
            isinstance(depth, bool) or not isinstance(depth, int) or depth < 0
        ):
            raise ValueError(
                f"max_depth must be None or an integer >= 0, got {depth!r}"
            )


class BFSProgram(SSSPProgram):
    """Textbook BFS + incremental BFS + min-union, as a PIE program."""

    name = "bfs"

    def _settle(
        self, out: list, dist: list, seeds: list, query: BFSQuery
    ) -> tuple[list[int], int]:
        return bfs_slots(out, dist, seeds, query.max_depth)

    def _cost(self, weight: float | None) -> float:
        """Every edge is one hop, whatever it weighs or used to weigh."""
        return 1

    def _depends(self, dv: float, offer: float) -> bool:
        """Exact tightness: hop counts never change under a reweight, so
        no same-batch op can make a once-tight edge read slack."""
        return dv == offer

    def classify_update(self, query: BFSQuery, op) -> bool:
        """Hop distances ignore weights: only deletions are unsafe."""
        return op.kind != "delete"


def reachable_from(answer: Mapping[VertexId, float]) -> set[VertexId]:
    """Vertices reachable from the BFS source, from a BFS answer."""
    return {v for v, d in answer.items() if d < INF}
