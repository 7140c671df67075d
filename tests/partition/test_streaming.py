"""Unit tests for LDG and Fennel streaming partitioners."""

import pytest

from repro.graph.generators import power_law, road_network
from repro.partition.base import evaluate_partition
from repro.partition.hash1d import HashPartitioner
from repro.partition import streaming
from repro.partition.streaming import FennelPartitioner, LDGPartitioner


@pytest.mark.parametrize("cls", [LDGPartitioner, FennelPartitioner])
def test_total_and_valid(cls):
    g = power_law(200, seed=1)
    assignment = cls()(g, 4)
    assert set(assignment) == set(g.vertices())
    assert all(0 <= f < 4 for f in assignment.values())


@pytest.mark.parametrize("cls", [LDGPartitioner, FennelPartitioner])
def test_capacity_respected(cls):
    g = power_law(200, seed=2)
    assignment = cls()(g, 4)
    report = evaluate_partition(g, assignment, 4)
    assert report.balance <= 1.35  # 10% slack + rounding


@pytest.mark.parametrize("cls", [LDGPartitioner, FennelPartitioner])
def test_beats_hash_on_cut(cls):
    g = road_network(12, 12, seed=3)
    hash_cut = evaluate_partition(g, HashPartitioner()(g, 4), 4).cut_edges
    stream_cut = evaluate_partition(g, cls()(g, 4), 4).cut_edges
    assert stream_cut < hash_cut


def test_fennel_gamma_affects_result(monkeypatch):
    g = power_law(150, seed=6)
    monkeypatch.setattr(streaming, "FENNEL_GAMMA", 1.2)
    a = FennelPartitioner()(g, 4)
    monkeypatch.setattr(streaming, "FENNEL_GAMMA", 2.0)
    b = FennelPartitioner()(g, 4)
    assert a != b


def test_fennel_slack_bounds_largest_part(monkeypatch):
    monkeypatch.setattr(streaming, "SLACK", 1.05)
    g = power_law(200, seed=7)
    tight = FennelPartitioner()(g, 4)
    report = evaluate_partition(g, tight, 4)
    assert report.balance <= 1.3


def test_streaming_handles_isolated_vertices():
    from repro.graph.digraph import Graph

    g = Graph()
    for v in range(10):
        g.add_vertex(v)
    for cls in (LDGPartitioner, FennelPartitioner):
        assignment = cls()(g, 3)
        assert set(assignment) == set(range(10))
