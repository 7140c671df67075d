"""Unit tests for the registry, session, query builders, report, CLI."""

import pytest

from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.engineapi.cli import main
from repro.engineapi.query import build_query, query_classes
from repro.engineapi.registry import (
    available_programs,
    get_program,
    register_program,
)
from repro.engineapi.report import comparison_table, format_report
from repro.engineapi.session import Session
from repro.errors import QueryError, RegistryError
from repro.graph.digraph import Graph
from repro.graph.generators import road_network
from repro.service.service import canonical_answer_bytes


# ------------------------------------------------------------- registry
def test_builtin_programs_registered():
    names = available_programs()
    for expected in ("sssp", "cc", "sim", "subiso", "keyword", "cf",
                     "pagerank"):
        assert expected in names


def test_get_program_instances_fresh():
    assert get_program("sssp") is not get_program("sssp")


def test_get_program_kwargs():
    program = get_program("pagerank", total_vertices=10)
    assert program.total_vertices == 10


def test_unknown_program_raises():
    with pytest.raises(RegistryError, match="sssp"):
        get_program("quantum")


def test_register_duplicate_rejected():
    with pytest.raises(RegistryError):
        register_program("sssp", SSSPProgram)


# -------------------------------------------------------------- session
def test_session_partitions_lazily_and_caches():
    g = road_network(5, 5, seed=1)
    session = Session(g, num_workers=3)
    fragd = session.fragmented
    assert session.fragmented is fragd
    assert fragd.num_fragments == 3


def test_session_repartition_invalidates():
    g = road_network(5, 5, seed=1)
    session = Session(g, num_workers=3, partition="hash")
    first = session.fragmented
    session.repartition(partition="bfs", num_workers=4)
    assert session.fragmented is not first
    assert session.fragmented.num_fragments == 4
    assert session.partitioner.name == "bfs"

    # A live worker pool owns copies of the old fragments: repartition
    # must retire it, and the next run must answer from the new ones.
    query = SSSPQuery(source=0)
    live = Session(g, num_workers=2, partition="hash", backend="process")
    try:
        live.run(SSSPProgram(), query)
        old_pool = list(live.backend._procs)
        assert old_pool and all(p.is_alive() for p in old_pool)
        live.repartition("multilevel", 3)
        assert not any(p.is_alive() for p in old_pool)
        again = live.run(SSSPProgram(), query)
    finally:
        live.close()
    fresh = Session(g, num_workers=3, partition="multilevel")
    assert live.fragmented.assignment == fresh.fragmented.assignment
    assert canonical_answer_bytes(again.answer) == canonical_answer_bytes(
        fresh.run(SSSPProgram(), query).answer
    )


def test_session_partition_report():
    g = road_network(5, 5, seed=1)
    report = Session(g, num_workers=2, partition="bfs").partition_report()
    assert report.strategy == "bfs"
    assert report.num_parts == 2


def test_session_run_registered():
    g = road_network(5, 5, seed=1)
    session = Session(g, num_workers=2)
    result = session.run_registered("sssp", SSSPQuery(source=0))
    assert result.answer[0] == 0.0


def test_session_run_registered_applies_validate_gate():
    # run_registered must go through the same grape-lint gate as run().
    from repro.engineapi import registry
    from repro.errors import AnalysisError
    from tests.analysis.fixtures.viol_grp101 import MaxUnderMinProgram

    register_program("viol-grp101", MaxUnderMinProgram)
    try:
        session = Session(
            road_network(4, 4, seed=1), num_workers=2, validate=True
        )
        with pytest.raises(AnalysisError, match="GRP101"):
            session.run(MaxUnderMinProgram(), SSSPQuery(source=0))
        with pytest.raises(AnalysisError, match="GRP101"):
            session.run_registered("viol-grp101", SSSPQuery(source=0))
    finally:
        registry._FACTORIES.pop("viol-grp101", None)


def test_session_accepts_partitioner_instance():
    from repro.partition.hash1d import HashPartitioner

    g = road_network(4, 4, seed=2)
    session = Session(g, partition=HashPartitioner())
    assert session.partitioner.name == "hash"


# ---------------------------------------------------------------- query
def test_build_query_each_class():
    pattern = Graph()
    pattern.add_vertex("a", label="x")
    assert build_query("sssp", source=3).source == 3
    assert build_query("cc") is not None
    assert build_query("sim", pattern=pattern).pattern is pattern
    q = build_query("subiso", pattern=pattern)
    assert q.pivot == "a"
    kq = build_query("keyword", keywords=["a", "b"], radius=2)
    assert kq.keywords == ("a", "b") and kq.radius == 2
    assert build_query("cf", epochs=3).epochs == 3
    assert build_query("pagerank", damping=0.9).damping == 0.9


def test_build_query_validation_errors():
    with pytest.raises(QueryError):
        build_query("sssp")
    with pytest.raises(QueryError):
        build_query("sim", pattern="not a graph")
    with pytest.raises(QueryError):
        build_query("keyword", keywords=[])
    with pytest.raises(QueryError):
        build_query("astrology")


@pytest.mark.parametrize(
    "field,value",
    [
        ("tolerance", 0),
        ("tolerance", -1),
        ("tolerance", float("nan")),
        ("damping", 1),
        ("damping", 1.5),
        ("damping", -0.5),
        ("damping", float("nan")),
    ],
)
def test_build_query_refuses_a_pagerank_that_cannot_converge(field, value):
    # tolerance 0 never drains; damping >= 1 or NaN returns all-zero
    # ranks, a negative one ranks that do not sum to 1.
    with pytest.raises(QueryError, match=f"{field} "):
        build_query("pagerank", **{field: value})


def test_query_classes_sorted():
    assert query_classes() == sorted(query_classes())


# --------------------------------------------------------------- report
def test_format_report_contains_sections():
    g = road_network(5, 5, seed=3)
    session = Session(g, num_workers=3, check_monotonic=True)
    result = session.run(SSSPProgram(), SSSPQuery(source=0))
    text = format_report(result, title="t")
    assert "phase breakdown" in text
    assert "peval" in text
    assert "monotonicity       OK" in text
    assert "IncEval rounds" in text


def test_comparison_table_rows():
    g = road_network(4, 4, seed=4)
    session = Session(g, num_workers=2)
    result = session.run(SSSPProgram(), SSSPQuery(source=0))
    table = comparison_table({"GRAPE": result.metrics})
    assert "GRAPE" in table
    assert "Time(s)" in table


# ------------------------------------------------------------------ cli
def test_cli_classes(capsys):
    assert main(["classes"]) == 0
    out = capsys.readouterr().out
    assert "sssp" in out and "multilevel" in out


def test_cli_run_sssp(capsys):
    rc = main([
        "run", "--graph", "road:5x5", "--query", "sssp",
        "--source", "0", "--workers", "2",
    ])
    assert rc == 0
    assert "phase breakdown" in capsys.readouterr().out


def test_cli_run_json(capsys):
    import json

    rc = main([
        "run", "--graph", "road:5x5", "--query", "sssp",
        "--source", "0", "--workers", "2", "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["query"] == "sssp"
    assert payload["graph"] == "road:5x5"
    metrics = payload["metrics"]
    assert metrics["engine"].startswith("grape")
    assert metrics["num_workers"] == 2
    assert metrics["num_supersteps"] > 0
    assert set(metrics["phase_breakdown"]) >= {"peval", "inceval"}
    assert payload["rounds"]
    assert {"round_index", "params_shipped"} <= set(payload["rounds"][0])


def test_cli_run_pagerank(capsys):
    rc = main([
        "run", "--graph", "power:100", "--query", "pagerank",
        "--workers", "2",
    ])
    assert rc == 0


def test_cli_run_keyword(capsys):
    rc = main([
        "run", "--graph", "social:80", "--query", "keyword",
        "--keywords", "person,product",
    ])
    assert rc == 0


def test_cli_partitions(capsys):
    rc = main(["partitions", "--graph", "road:6x6", "--workers", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "multilevel" in out and "hash" in out


def test_cli_bad_graph_spec(capsys):
    rc = main(["run", "--graph", "torus:9", "--query", "cc"])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    # A known kind with a malformed size is the same typed error.
    rc = main(["run", "--graph", "road:axb", "--query", "cc"])
    assert rc == 2
    assert "error: bad graph spec 'road:axb'" in capsys.readouterr().err


def test_cli_run_updates_reports_repair(capsys, tmp_path):
    import json

    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({
        "insert": [[0, 24, 0.5]],
        "delete": [[0, 1]],
        "reweight": [[1, 2, 9.0]],
    }))
    rc = main([
        "run", "--graph", "road:5x5", "--query", "sssp",
        "--source", "0", "--workers", "2", "--updates", str(delta),
    ])
    assert rc == 0
    assert "delta repair:" in capsys.readouterr().out

    rc = main([
        "run", "--graph", "road:5x5", "--query", "sssp",
        "--source", "0", "--workers", "2", "--updates", str(delta),
        "--json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["repair"]["mode"] in {"monotone", "scoped", "full"}
    assert payload["repair"]["unsafe_ops"] >= 1


@pytest.mark.parametrize("query", ["pagerank", "cf"])
def test_cli_run_updates_refuses_a_program_without_delta_hooks(
    capsys, tmp_path, query
):
    import json

    delta = tmp_path / "ins.json"
    delta.write_text(json.dumps({"insert": [[0, 5, 1.0]]}))
    rc = main([
        "run", "--graph", "power:60", "--query", query,
        "--updates", str(delta),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: [GRP404]")
    assert "delta repair:" not in captured.out


def test_cli_run_updates_missing_file(capsys):
    rc = main([
        "run", "--graph", "road:5x5", "--query", "sssp",
        "--source", "0", "--updates", "/nonexistent/delta.json",
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_serve_trace_with_deletes_verifies(capsys):
    import json
    from pathlib import Path

    trace_path = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "traces" / "service_workload.json"
    )
    trace = json.loads(trace_path.read_text())
    updates = [op for op in trace["ops"] if op.get("op") == "update"]
    assert any(op.get("deletes") for op in updates)  # ΔG deletions replayed
    # No --no-verify: every update batch verifies standing answers
    # against a full recompute; a mismatch would flip the exit code.
    rc = main(["serve", "--trace", str(trace_path), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    report = json.loads(out)
    assert report["survived"] is True
    assert report["updates"]["deletes"] == 2
    assert report["updates"]["reweights"] == 1
    for standing in report["standing"]:
        assert standing["mismatches"] == 0


def test_cli_compare(capsys):
    rc = main(["compare", "--graph", "road:7x7", "--workers", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GRAPE (PIE)" in out
    assert "Giraph" in out
