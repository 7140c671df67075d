"""The straggler/skew report: the same text from a live tracer and from
its exported Chrome trace, and a reclaimed-slack figure that agrees
with the engine's own clock."""

import re

import pytest

from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.obs import (
    Tracer,
    chrome_trace,
    report_for_tracer,
    report_from_chrome,
)
from repro.runtime.costmodel import CostModel

WORKERS = 4


def _skewed_run(mode, routing):
    """SSSP with 70 % of the grid pinned to worker 0 (E16's shape)."""
    graph = graph_from_spec("road:16x16")
    vertices = sorted(graph.vertices())
    heavy = int(len(vertices) * 0.7)
    assignment = {
        v: 0 if i < heavy else 1 + i % (WORKERS - 1)
        for i, v in enumerate(vertices)
    }
    tracer = Tracer()
    engine = GrapeEngine(
        build_fragments(graph, assignment, WORKERS, "skewed"),
        cost_model=CostModel(deterministic=True),
        mode=mode,
        routing=routing,
        tracer=tracer,
    )
    result = engine.run(get_program("sssp"), build_query("sssp", source=0))
    return tracer, result


@pytest.mark.parametrize(
    ("mode", "routing"),
    [
        pytest.param("strict", "coordinator", id="strict-coordinator"),
        pytest.param("strict", "direct", id="strict-direct"),
        pytest.param("relaxed", "direct", id="relaxed"),
    ],
)
def test_live_report_equals_report_from_chrome(mode, routing):
    tracer, result = _skewed_run(mode, routing)
    live = report_for_tracer(tracer)
    assert live == report_from_chrome(chrome_trace(tracer))
    assert f"{result.metrics.num_supersteps} supersteps" in live
    assert ("relaxed waves:" in live) == (mode == "relaxed")


def test_reclaimed_slack_agrees_with_the_engine_clock():
    """One run, one figure: the seconds the report says the waves
    reclaimed are the seconds ``RunMetrics.total_time`` says relaxed
    mode saved over strict-direct (the two modes ship the same
    messages, so the clock is all that differs). The percentages have
    different denominators — whole run vs the waves — and are not
    compared."""
    _, strict = _skewed_run("strict", "direct")
    tracer, relaxed = _skewed_run("relaxed", "direct")
    saved = strict.metrics.total_time - relaxed.metrics.total_time
    # the partition is skewed enough to matter
    assert saved > 0.05 * strict.metrics.total_time
    (line,) = [
        line
        for line in report_for_tracer(tracer).splitlines()
        if line.startswith("relaxed waves:")
    ]
    (trace_us,) = re.findall(r"reclaimed (-?[\d.]+)us", line)
    assert abs(float(trace_us) - 1e6 * saved) <= 0.1, line
