"""Unit tests for the MetricsRegistry dotted-name namespace."""

import pytest

from repro.graph.generators import road_network
from repro.obs import MetricsRegistry, Tracer, sanitize_segment
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.partition.registry import get_partitioner

from repro.algorithms.sssp import SSSPProgram, SSSPQuery


def _run(tracer=None):
    g = road_network(5, 5, seed=3, removal_prob=0.0)
    assignment = get_partitioner("hash")(g, 3)
    engine = GrapeEngine(build_fragments(g, assignment, 3), tracer=tracer)
    return engine.run(SSSPProgram(), SSSPQuery(source=0))


def test_record_validates_names_and_values():
    reg = MetricsRegistry()
    reg.record("run.bytes.total", 42)
    assert reg.as_dict() == {"run.bytes.total": 42}
    with pytest.raises(ValueError, match="bad metric name"):
        reg.record("Run.Bytes", 1)
    with pytest.raises(ValueError, match="bad metric name"):
        reg.record("run..bytes", 1)
    with pytest.raises(ValueError, match="scalar"):
        reg.record("run.blob", [1, 2])


def test_sanitize_segment_is_lossy_but_legal():
    assert sanitize_segment("hub SSSP #1") == "hub_sssp__1"
    assert sanitize_segment("") == "_"
    reg = MetricsRegistry()
    reg.record(f"service.standing.{sanitize_segment('hub SSSP #1')}.repairs", 2)
    assert reg.names() == ["service.standing.hub_sssp__1.repairs"]


def test_names_and_as_dict_are_sorted():
    reg = MetricsRegistry({"b.y": 2, "a.x": 1})
    assert reg.names() == ["a.x", "b.y"]
    assert list(reg.as_dict()) == ["a.x", "b.y"]


def test_from_tracer_aggregates_replay_stable_totals():
    tracer = Tracer()
    result = _run(tracer=tracer)
    metrics = MetricsRegistry.from_tracer(tracer).as_dict()
    assert metrics["obs.runs"] == 1
    assert metrics["obs.supersteps"] == result.metrics.num_supersteps
    assert metrics["obs.bytes.total"] == result.metrics.total_bytes
    assert metrics["obs.messages.total"] == result.metrics.total_messages
    assert metrics["obs.spans.retry"] == 0
    # No service traffic -> no service.* names at all.
    assert not [n for n in metrics if n.startswith("obs.service")]
