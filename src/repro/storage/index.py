"""Index Manager — graph-level optimization GRAPE inherits (Fig. 2).

"GRAPE parallelizes sequential algorithms as a whole, and hence
naturally supports optimization strategies developed for sequential
algorithms, such as graph indexing" (Section 3). The Index Manager
maintains per-fragment indexes a sequential PEval can consult:

* :class:`LabelIndex` — vertex label -> vertex ids (accelerates the
  initial candidate computation of Sim/SubIso and keyword-holder scans).

Vertex-centric programs cannot exploit such indexes (each vertex sees
only itself); the E8 ablation quantifies the speedup they buy PEval.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Hashable

from repro.graph.digraph import Graph

VertexId = Hashable


class LabelIndex:
    """Inverted index: label -> list of vertex ids."""

    def __init__(self, graph: Graph) -> None:
        buckets: dict[str | None, list[VertexId]] = defaultdict(list)
        for v in graph.vertices():
            buckets[graph.vertex_label(v)].append(v)
        self._buckets = dict(buckets)

    def lookup(self, label: str | None) -> list[VertexId]:
        """Vertex ids carrying ``label``."""
        return list(self._buckets.get(label, ()))

    def labels(self) -> list[str | None]:
        """All labels present in the index."""
        return list(self._buckets)

    def count(self, label: str | None) -> int:
        """Number of vertices carrying ``label``."""
        return len(self._buckets.get(label, ()))


class IndexManager:
    """Builds and caches indexes per fragment graph (keyed by id)."""

    def __init__(self) -> None:
        self._label: dict[int, LabelIndex] = {}

    def label_index(self, graph: Graph) -> LabelIndex:
        """The (cached) label index of ``graph``."""
        key = id(graph)
        if key not in self._label:
            self._label[key] = LabelIndex(graph)
        return self._label[key]

    def invalidate(self, graph: Graph) -> None:
        """Drop cached indexes of ``graph``."""
        self._label.pop(id(graph), None)
