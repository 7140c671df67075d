"""Exit-code and output contract of ``grape lint``."""

from __future__ import annotations

import json
from pathlib import Path

from repro.engineapi.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_lint_clean_file_exits_zero(capsys):
    code = main(["lint", str(FIXTURES / "clean_widest.py")])
    out = capsys.readouterr().out
    assert code == 0
    assert "grape-lint: clean" in out


def test_lint_violation_exits_one(capsys):
    code = main(["lint", str(FIXTURES / "viol_grp301.py")])
    out = capsys.readouterr().out
    assert code == 1
    assert "GRP301" in out


def test_lint_missing_path_exits_two(capsys):
    code = main(["lint", str(FIXTURES / "no_such_file.py")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_lint_no_paths_exits_two(capsys):
    code = main(["lint"])
    err = capsys.readouterr().err
    assert code == 2
    assert "at least one file" in err


def test_lint_suppressed_finding_exits_zero(capsys):
    code = main(["lint", str(FIXTURES / "suppressed_ok.py")])
    out = capsys.readouterr().out
    assert code == 0
    assert "suppressed" in out


def test_lint_show_suppressed_prints_finding(capsys):
    main(["lint", "--show-suppressed", str(FIXTURES / "suppressed_ok.py")])
    out = capsys.readouterr().out
    assert "GRP304" in out


def test_lint_min_severity_gates_exit_code(capsys):
    # GRP202 is a warning: below --min-severity error it cannot fail.
    target = str(FIXTURES / "viol_grp202.py")
    assert main(["lint", "--min-severity", "error", target]) == 0
    capsys.readouterr()
    assert main(["lint", "--min-severity", "warning", target]) == 1


def test_lint_json_output(capsys):
    code = main(["lint", "--json", str(FIXTURES / "viol_grp102.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [item["code"] for item in payload] == ["GRP102"]
    assert payload[0]["severity"] == "warning"


def test_lint_rules_prints_catalog(capsys):
    from repro.analysis import CATALOG

    code = main(["lint", "--rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule_code in CATALOG:
        assert rule_code in out
    # Static codes only: the runtime checks are always on.
    assert "GRP100" not in out and "GRP401" not in out


def test_lint_directory_sweep(capsys):
    # The fixture directory holds one seeded violation per rule, so a
    # directory sweep must surface every static rule code at once.
    from repro.analysis import CATALOG

    code = main(["lint", str(FIXTURES)])
    out = capsys.readouterr().out
    assert code == 1
    for rule_code in CATALOG:
        assert rule_code in out
