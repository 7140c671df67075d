"""Tier-1 serving smoke: replay the bundled workload trace via the CLI.

Fast sanity gate for the serving layer: ``grape serve`` on a truncated
slice of the bundled trace must exit 0 (standing answers verified
against full recomputation) and report real cache traffic.
"""

import json
from pathlib import Path

import pytest

from repro.engineapi.cli import main

TRACE = str(
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "traces" / "service_workload.json"
)


def test_cli_serve_smoke(capsys):
    rc = main(["serve", "--trace", TRACE, "--max-queries", "20"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "service report" in out
    assert "standing answers identical to full recomputation" in out


def test_cli_serve_json_smoke(capsys):
    rc = main([
        "serve", "--trace", TRACE, "--max-queries", "20", "--json",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["survived"] is True
    assert report["cache"]["hits"] > 0
    assert report["graph_version"] >= 2  # at least one update replayed
    for standing in report["standing"]:
        assert standing["mismatches"] == 0


def test_cli_serve_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["serve", "--trace", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--replicas", "3", "--chaos-seed", "7", "--chaos-rate", "nan"],
        ["--replicas", "3", "--chaos-seed", "7", "--chaos-rate", "7"],
        ["--replicas", "3", "--chaos-seed", "7", "--chaos-rate", "-1"],
        ["--replicas", "3", "--deadline", "nan"],
        ["--replicas", "3", "--deadline", "-1"],
        ["--chaos-seed", "3"],
        ["--deadline", "0.01"],
        ["--replicas", "0"],
        ["--replicas", "-2"],
        ["--replicas", "3", "--backend", "process"],
    ],
    ids=lambda flags: " ".join(flags),
)
def test_cli_serve_refuses_nonsense_fleet_flags(flags, capsys):
    rc = main(["serve", "--trace", TRACE, "--max-queries", "1", *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
