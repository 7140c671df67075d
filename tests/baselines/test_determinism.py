"""Every baseline engine repeats its metrics under the deterministic
cost model — the E1, E4 and E9 records depend on it."""

import pytest

from repro.baselines.blogel import BlogelEngine
from repro.baselines.blogel_programs import BlogelSSSP
from repro.baselines.gas import GASEngine
from repro.baselines.gas_programs import GASSSSP
from repro.baselines.pregel import PregelEngine
from repro.baselines.pregel_as_pie import VertexCentricAsPIE
from repro.baselines.pregel_programs import PregelSSSP
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.partition.registry import get_partitioner
from repro.runtime.costmodel import CostModel

COST = CostModel(deterministic=True)

RUNS = {
    "pregel": lambda g, f: PregelEngine(f, COST).run(PregelSSSP(0)),
    "gas": lambda g, f: GASEngine(g, f, COST).run(GASSSSP(0)),
    "blogel": lambda g, f: BlogelEngine(f, COST).run(BlogelSSSP(0)),
    "pregel-as-pie": lambda g, f: GrapeEngine(f, cost_model=COST).run(
        VertexCentricAsPIE(PregelSSSP(0), num_vertices=g.num_vertices), None
    ),
}


@pytest.mark.parametrize("engine", sorted(RUNS))
def test_metrics_repeat_exactly(engine):
    graph = graph_from_spec("road:12x12")
    fragd = build_fragments(graph, get_partitioner("hash")(graph, 4), 4)
    first, second = (RUNS[engine](graph, fragd).metrics for _ in range(2))
    assert first.total_time > 0
    assert first.as_dict() == second.as_dict()
