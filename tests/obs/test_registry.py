"""Unit tests for the dotted-name metrics a Chrome export embeds."""

from repro.graph.generators import road_network
from repro.obs import Tracer, chrome_trace, trace_metrics
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.partition.registry import get_partitioner

from repro.algorithms.sssp import SSSPProgram, SSSPQuery


def _run(tracer=None):
    g = road_network(5, 5, seed=3, removal_prob=0.0)
    assignment = get_partitioner("hash")(g, 3)
    engine = GrapeEngine(build_fragments(g, assignment, 3), tracer=tracer)
    return engine.run(SSSPProgram(), SSSPQuery(source=0))


def test_metrics_are_sorted_by_name():
    tracer = Tracer()
    _run(tracer=tracer)
    metrics = trace_metrics(tracer.events)
    assert list(metrics) == sorted(metrics)
    assert chrome_trace(tracer)["otherData"]["metrics"] == metrics


def test_from_tracer_aggregates_replay_stable_totals():
    tracer = Tracer()
    result = _run(tracer=tracer)
    metrics = trace_metrics(tracer.events)
    assert metrics["obs.events"] == len(tracer.events)
    assert metrics["obs.runs"] == 1
    assert metrics["obs.supersteps"] == result.metrics.num_supersteps
    assert metrics["obs.bytes.total"] == result.metrics.total_bytes
    assert metrics["obs.messages.total"] == result.metrics.total_messages
    assert metrics["obs.spans.retry"] == 0
    # No service traffic -> no service.* names at all.
    assert not [n for n in metrics if n.startswith("obs.service")]
