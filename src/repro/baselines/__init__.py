"""Baseline engines the paper compares against, rebuilt from scratch.

* :mod:`pregel` — vertex-centric BSP ("think like a vertex"), the model
  of Pregel and Giraph;
* :mod:`gas` — gather-apply-scatter with replica synchronization, the
  model of (synchronous) GraphLab / PowerGraph;
* :mod:`blogel` — block-centric BSP ("think like a block"), the model of
  Blogel.

All three run on the same simulated cluster and cost model as the GRAPE
engine so the Table 1 / Fig. 3(5) comparisons are apples-to-apples: the
differences that emerge — superstep counts, per-vertex overhead, message
volume — are consequences of the programming models, not of the
substrate.
"""

from repro.baselines.pregel import PregelEngine, PregelResult, VertexProgram
from repro.baselines.pregel_as_pie import VertexCentricAsPIE
from repro.baselines.gas import GASEngine, GASProgram, GASResult
from repro.baselines.blogel import BlockProgram, BlogelEngine, BlogelResult

__all__ = [
    "VertexCentricAsPIE",
    "PregelEngine",
    "PregelResult",
    "VertexProgram",
    "GASEngine",
    "GASProgram",
    "GASResult",
    "BlockProgram",
    "BlogelEngine",
    "BlogelResult",
]
