"""The straggler/skew report: the same text from a live tracer and from
its exported Chrome trace (under every standard fault plan too), and a
reclaimed-slack figure that agrees with the engine's own clock."""

import json
import re

import pytest

from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.engineapi.chaos import standard_plans
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.obs import (
    Tracer,
    build_timeline,
    dump_chrome_trace,
    report_for_tracer,
    report_from_chrome,
    skew_report,
    trace_metrics,
)
from repro.runtime.costmodel import CostModel
from repro.storage.dfs import SimulatedDFS

WORKERS = 4
PLANS = standard_plans(seed=7)
MODES = [("strict", "strict-direct"), ("relaxed", "relaxed")]


def _skewed_run(mode, faults=None, checkpoint=None):
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
        tracer=tracer,
    )
    result = engine.run(
        get_program("sssp"),
        build_query("sssp", source=0),
        checkpoint=checkpoint,
        faults=faults,
    )
    return tracer, result


@pytest.mark.parametrize(
    ("mode", "plan_name"),
    [pytest.param(mode, None, id=mid) for mode, mid in MODES]
    + [
        pytest.param(mode, name, id=f"{mid}-{name}")
        for mode, mid in MODES
        for name in sorted(PLANS)
    ],
)
def test_live_report_equals_report_from_chrome(mode, plan_name, tmp_path):
    """A fatal crash aborts a step whose index the ``recover`` step then
    reuses; the Chrome reader must keep both rows, as the live one does."""
    faults = checkpoint = None
    if plan_name is not None:
        faults = PLANS[plan_name]
        checkpoint = CheckpointPolicy(SimulatedDFS(tmp_path), every=1)
    tracer, result = _skewed_run(mode, faults, checkpoint)
    live = report_for_tracer(tracer)
    assert live == report_from_chrome(json.loads(dump_chrome_trace(tracer)))
    # The Chrome reader loses nothing the raw log's timeline has: lanes,
    # durations, skew, stragglers and recoveries all come back equal.
    assert live == skew_report(
        build_timeline(tracer.events), metrics=trace_metrics(tracer.events)
    )
    aborted = result.metrics.faults.recoveries
    assert live.count("[aborted]") == aborted
    assert f"{result.metrics.num_supersteps + aborted} supersteps" in live
    assert ("relaxed waves:" in live) == (mode == "relaxed")


def test_reclaimed_slack_agrees_with_the_engine_clock():
    """One run, one figure: the seconds the report says the waves
    reclaimed are the seconds ``RunMetrics.total_time`` says relaxed
    mode saved over strict mode (the two modes ship the same
    messages, so the clock is all that differs). The percentages have
    different denominators — whole run vs the waves — and are not
    compared."""
    _, strict = _skewed_run("strict")
    tracer, relaxed = _skewed_run("relaxed")
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
