"""Workload traces: validation, replay, and report determinism."""

import json
from pathlib import Path

import pytest

from repro.engineapi.cli import main
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


_Q = {"op": "query", "class": "sssp", "params": {"source": 0}}


def _trace(*ops, **top):
    return {"graph": "road:4x4", "workers": 2, "ops": [_Q, *ops], **top}


MALFORMED_TRACES = [
    pytest.param({"graph": "road:4x4", "ops": 3}, "'ops' list",
                 id="ops-not-a-list"),
    pytest.param({"graph": "road:4x4", "ops": [3]}, "op #0",
                 id="op-not-an-object"),
    pytest.param(_trace({**_Q, "repeat": "x"}), "op #1: 'repeat'",
                 id="repeat-not-int"),
    pytest.param(_trace({**_Q, "priority": "hi"}), "op #1: 'priority'",
                 id="priority-not-int"),
    pytest.param(_trace({**_Q, "at": "soon"}), "op #1: 'at'",
                 id="at-not-a-number"),
    pytest.param(_trace({**_Q, "params": [1]}), "op #1: 'params'",
                 id="params-not-an-object"),
    pytest.param(_trace({**_Q, "class": [1]}), "op #1: 'class'",
                 id="class-not-a-string"),
    pytest.param({**_trace(), "workers": "two"}, "'workers'",
                 id="workers-not-int"),
    pytest.param({**_trace(), "graph": 3}, "'graph'",
                 id="graph-not-a-string"),
    pytest.param(_trace(service={"concurrency": "x"}), "'concurrency'",
                 id="service-knob-not-int"),
    pytest.param(_trace(service={"max_pending": 0}), "'max_pending'",
                 id="service-knob-not-positive"),
    pytest.param(_trace(service={"cache_ttl": "x"}), "'cache_ttl'",
                 id="cache-ttl-not-a-number"),
    # A key the replay would not read used to be dropped silently: a
    # misspelt knob served at its default, a misspelt field ran once.
    pytest.param(_trace(service={"cache_capcity": 1}),
                 "'service': unknown key 'cache_capcity'; allowed: "
                 "cache_capacity, concurrency, max_pending, rewarm_hottest",
                 id="service-knob-misspelt"),
    pytest.param(_trace(service={"cache_ttl": 5.0}), "unknown key 'cache_ttl'",
                 id="cache-ttl-removed"),
    pytest.param(_trace({**_Q, "repeet": 3}), "op #1: unknown key 'repeet'",
                 id="query-field-misspelt"),
    pytest.param(_trace({"op": "update", "edges": [[0, 1, 0.5]],
                         "verfy": False}),
                 "op #1: unknown key 'verfy'", id="update-field-misspelt"),
    pytest.param(_trace({"op": "drain", "at": 1.0}), "op #1: unknown key 'at'",
                 id="drain-field-unknown"),
    pytest.param({**_trace(), "worker": 2}, "unknown key 'worker'",
                 id="top-level-key-misspelt"),
    pytest.param(_trace(standing=[{"name": "a", "class": "sssp",
                                   "parms": {}}]),
                 "standing entry #0: unknown key 'parms'",
                 id="standing-key-misspelt"),
    pytest.param({**_trace(), "partition": [1]}, "'partition'",
                 id="partition-not-a-string"),
    pytest.param({**_trace(), "store": [1]}, "'store'",
                 id="store-not-a-string"),
    pytest.param(_trace(service=[1]), "'service'",
                 id="service-not-an-object"),
    pytest.param(_trace(standing=3), "'standing'", id="standing-not-a-list"),
    pytest.param(_trace(standing=[3]), "standing entry #0",
                 id="standing-entry-not-an-object"),
    pytest.param(
        _trace(standing=[{"name": "a", "class": "sssp", "params": [1]}]),
        "standing entry #0: 'params'", id="standing-params-not-an-object",
    ),
    pytest.param(_trace({"op": "update", "deletes": [3]}), "op #1",
                 id="update-row-not-a-list"),
    pytest.param(_trace({"op": "update", "edges": 3}), "op #1",
                 id="update-section-not-a-list"),
    pytest.param(_trace({"op": "update", "reweights": [[0, 1]]}), "op #1",
                 id="reweight-row-without-weight"),
    pytest.param(_trace({"op": "update", "edges": [[0, 1, "x"]]}), "op #1",
                 id="update-weight-not-a-number"),
    pytest.param(_trace({"op": "update", "edges": [[[0], 1, 0.5]]}), "op #1",
                 id="update-endpoint-not-a-vertex"),
    pytest.param(_trace({**_Q, "params": {"source": [1]}}), "source=",
                 id="query-source-not-a-vertex"),
]


@pytest.mark.parametrize(
    "replicas", [[], ["--replicas", "3"]], ids=["service", "fleet"]
)
@pytest.mark.parametrize("trace,named", MALFORMED_TRACES)
def test_cli_malformed_trace_is_a_typed_error(
    trace, named, replicas, capsys, tmp_path
):
    """A workload trace is outside input: every shape either replay
    would trip over is refused by ``load_trace``, naming where."""
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    rc = main(["serve", "--trace", str(path), *replicas])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("depth", [-1, 1.5])
def test_cli_bfs_depth_out_of_range_is_a_typed_error(depth, capsys, tmp_path):
    """``max_depth: -1`` used to exit 0 with an empty answer."""
    op = {"op": "query", "class": "bfs",
          "params": {"source": 0, "max_depth": depth}}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"graph": "road:4x4", "ops": [op]}))
    rc = main(["serve", "--trace", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "max_depth" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("damping", [1.0, 1.5])
def test_cli_pagerank_damping_out_of_range_is_a_typed_error(
    damping, capsys, tmp_path
):
    """``damping >= 1`` used to serve all-zero ranks; the query itself
    now refuses it (as it refuses ``tolerance <= 0``, which never
    drained)."""
    op = {"op": "query", "class": "pagerank", "params": {"damping": damping}}
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"graph": "power:60", "ops": [op]}))
    rc = main(["serve", "--trace", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "damping" in captured.err
    assert "Traceback" not in captured.err
