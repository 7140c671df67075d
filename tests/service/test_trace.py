"""Workload traces: validation, replay, and report determinism."""

import json
from pathlib import Path

import pytest

from repro.errors import GrapeError
from repro.service.trace import load_trace, replay_trace

TRACE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "traces" / "service_workload.json"
)


def test_bundled_trace_loads():
    trace = load_trace(str(TRACE))
    assert trace["ops"]
    assert {s["name"] for s in trace["standing"]} == {
        "hub-sssp", "components",
    }


def test_load_trace_rejects_unknown_op(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph": "road:4x4",
                               "ops": [{"op": "teleport"}]}))
    with pytest.raises(GrapeError, match="unknown kind"):
        load_trace(str(bad))


def test_load_trace_rejects_query_without_class(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph": "road:4x4",
                               "ops": [{"op": "query"}]}))
    with pytest.raises(GrapeError, match="needs a 'class'"):
        load_trace(str(bad))


def test_load_trace_rejects_empty_update(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph": "road:4x4",
                               "ops": [{"op": "update"}]}))
    with pytest.raises(GrapeError, match="at least one of"):
        load_trace(str(bad))


def test_update_batches_may_be_deletes_only(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "graph": "road:4x4",
        "ops": [
            {"op": "query", "class": "sssp", "params": {"source": 0}},
            {"op": "update", "deletes": [[1, 2]]},
        ],
    }))
    _, report = replay_trace(load_trace(str(good)))
    assert report.survived
    assert report.updates["deletes"] == 1
    assert report.updates["edges"] == 0


def test_load_trace_requires_graph_somewhere(tmp_path):
    trace_file = tmp_path / "nograph.json"
    trace_file.write_text(json.dumps({"ops": []}))
    trace = load_trace(str(trace_file))
    with pytest.raises(GrapeError, match="names no graph"):
        replay_trace(trace)


def test_replay_is_deterministic():
    trace = load_trace(str(TRACE))
    _, first = replay_trace(trace, max_queries=8)
    _, second = replay_trace(load_trace(str(TRACE)), max_queries=8)
    assert first.to_json() == second.to_json()


def test_bundled_trace_meets_serving_criteria():
    trace = load_trace(str(TRACE))
    service, report = replay_trace(trace)
    assert report.survived
    assert report.cache_hit_rate > 0
    assert report.updates["batches"] == 3
    for standing in report.standing:
        assert standing["verified_batches"] == 3
        assert standing["mismatches"] == 0
        # Incremental repair settles strictly less than recomputation.
        assert standing["work_ratio"] < 1.0
    assert service.version == 4  # three update batches past version 1


def test_replay_honors_spaced_arrivals(tmp_path):
    # With "at" giving the urgent request a later arrival and one lane,
    # the drain cannot retroactively preempt the request the lane
    # already started: the bfs waits for the first sssp run, then
    # overtakes the second.
    spec = {
        "graph": "road:6x6",
        "workers": 2,
        "service": {"concurrency": 1},
        "ops": [
            {"op": "query", "class": "sssp", "params": {"source": 0}},
            {"op": "query", "class": "sssp", "params": {"source": 1}},
            {"op": "query", "class": "bfs", "params": {"source": 0},
             "priority": 1, "at": 1e-6},
        ],
    }
    path = tmp_path / "spaced.json"
    path.write_text(json.dumps(spec))
    _, report = replay_trace(load_trace(str(path)))
    sssp, bfs = report.classes["sssp"], report.classes["bfs"]
    assert (sssp["completed"], bfs["completed"]) == (2, 1)
    # p50 of two samples is the smaller: the first sssp run's latency.
    assert sssp["latency_p50"] < bfs["latency_max"] < sssp["latency_max"]


def test_max_queries_truncates_cheaply():
    trace = load_trace(str(TRACE))
    _, report = replay_trace(trace, max_queries=3)
    completed = sum(c["completed"] for c in report.classes.values())
    assert completed == 3
    assert report.updates["batches"] == 0  # updates after the cut skipped
