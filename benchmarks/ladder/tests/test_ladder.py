"""The ladder's own checks, on the ``--smoke`` profile (tiny graphs, R = 2).

Run with ``python -m pytest benchmarks/ladder/tests -q`` from the
repository root.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys

import pytest

from benchmarks.ladder import ROOT, cli, verify
from benchmarks.ladder.harness import Recorder, replay
from benchmarks.ladder.run import run_workload
from benchmarks.ladder.verify import Collector
from benchmarks.ladder.workloads import SPECS, build_graph, build_schedule

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
SEED = 3


@functools.lru_cache(maxsize=None)
def record(name: str, trace: bool) -> dict:
    return run_workload(name, SEED, seconds=1, trace=trace, smoke=True)


def schedule_digest(name: str, seed: int) -> str:
    spec = SPECS[name]
    graph = build_graph(spec, smoke=True)
    return build_schedule(spec, graph, seed, smoke=True).digest()


def test_workloads_are_the_contracts():
    assert list(SPECS) == WORKLOADS
    for entry in CONTRACT["workloads"]:
        assert entry["why"] == SPECS[entry["name"]].why


@pytest.mark.parametrize("name", WORKLOADS)
def test_schedule_is_a_function_of_the_seed(name):
    assert schedule_digest(name, SEED) == schedule_digest(name, SEED)
    assert schedule_digest(name, SEED) != schedule_digest(name, SEED + 1)
    assert record(name, False)["schedule_digest"] == schedule_digest(name, SEED)


@pytest.mark.parametrize("name", WORKLOADS)
def test_output_names_exactly_the_contracts_metrics(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = record(name, trace)
        assert sum(result["ops_failed"].values()) == 0, result["errors"]
        wanted = {m["name"]: m["unit"] for m in CONTRACT[key]}
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        assert got == wanted
    assert all(v["value"] > 0 for v in record(name, False)["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_counts_repeat_exactly(name):
    again = run_workload(name, SEED, seconds=1, trace=True, smoke=True)
    first = record(name, True)
    for metric, unit in ((m["name"], m["unit"]) for m in CONTRACT["per_layer"]):
        if unit == "count" or metric.endswith("_ratio"):
            assert again["metrics"][metric] == first["metrics"][metric], metric
    comm = run_workload(name, SEED, seconds=1, smoke=True)["metrics"]["comm_mb"]
    assert comm == record(name, False)["metrics"]["comm_mb"]


def test_the_command_prints_the_contract_line():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ladder", "--smoke", "--seed", "5",
         "--workload", "serve-mixed", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_a_wrong_answer_is_counted_and_fails_the_run(monkeypatch, capsys):
    honest = verify.single_source

    def off_by_a_little(graph, source):
        oracle = honest(graph, source)
        oracle[source] += 1e-9
        return oracle

    monkeypatch.setattr(verify, "single_source", off_by_a_little)
    result = run_workload("road-sssp-hash", SEED, seconds=1, smoke=True)
    # the cold query, every warm query and every repaired answer of replay 0
    assert result["ops_failed"] == {"setup": 1, "query": 4, "update": 2}
    monkeypatch.setattr(cli, "_spawn", lambda name, args, seed: result)
    assert cli.main(["--workload", "road-sssp-hash", "--smoke"]) == 1
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 7


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_spans_account_for_each_traced_op(name):
    spec = SPECS[name]
    graph = build_graph(spec, smoke=True)
    schedule = build_schedule(spec, graph, SEED, smoke=True)
    rec = Recorder()
    log = replay(spec, graph, schedule, Collector(), rec)
    assert not log.failed
    covered = [0.0] * len(rec.spans)
    for _, start, end, parent, _ in rec.spans:
        if parent >= 0:
            covered[parent] += end - start
    ops = [
        (end - start, covered[i])
        for i, (label, start, end, _, _) in enumerate(rec.spans)
        if label.startswith("op.")
    ]
    assert len(ops) == len(schedule.ops)
    for duration, inside in ops:
        # a cache hit is tens of microseconds, of which the glue between
        # its two spans is several: held to the bar in the sum only
        assert inside >= 0.95 * duration or duration < 1e-3
    assert sum(i for _, i in ops) >= 0.95 * sum(d for d, _ in ops)
