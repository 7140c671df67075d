"""Shared infrastructure for the experiment benchmarks (E1–E16).

Each bench regenerates one table/figure of the paper's evaluation (or
one of our extension experiments) at laptop scale: it runs the
experiment on the simulated cluster under :data:`COST_MODEL`, asserts
the *shape* the paper reports (who wins, roughly by how much), and
writes one JSON record with :func:`write_record`, which also prints it
as a table. Every record under ``benchmarks/results/`` is a function of
the code alone, so a run on an unchanged tree rewrites none of them.
Wall-clock measurements (E14, E15) go to the git-ignored
``benchmarks/measured/`` instead.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.runtime.costmodel import CostModel

RESULTS_DIR = Path(__file__).parent / "results"
MEASURED_DIR = Path(__file__).parent / "measured"

#: Virtual time is network + barrier + injected delays, never measured
#: Python compute: identical on every run.
COST_MODEL = CostModel(deterministic=True)


def write_record(name: str, record: dict, directory: Path = RESULTS_DIR):
    """Write ``<directory>/<name>.json`` and print it as tables."""
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(f"\n{name}\n{render(record)}\n")


def render(record: dict, indent: str = "") -> str:
    """A dict of flat dicts is one table (a row per key, a column per
    field); any other dict is a ``key: value`` line per entry, each
    nested dict a section of its own."""
    rows = list(record.values())
    flat = (
        isinstance(r, dict) and not any(isinstance(v, dict) for v in r.values())
        for r in rows
    )
    if rows and all(flat):
        headers = [""] + list(dict.fromkeys(k for r in rows for k in r))
        table = format_rows(
            headers,
            [[key] + [row.get(h, "") for h in headers[1:]]
             for key, row in record.items()],
        )
        return "\n".join(indent + line for line in table.splitlines())
    return "\n".join(
        f"{indent}{key}:\n{render(value, indent + '  ')}"
        if isinstance(value, dict) else f"{indent}{key}: {value}"
        for key, value in record.items()
    )


def format_rows(headers: list[str], rows: list[list[object]]) -> str:
    """Fixed-width table matching the paper's presentation style."""
    table = [headers] + [
        [
            f"{cell:.4g}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        for row in rows
    ]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if idx == 0:
            lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(lines)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its value.

    Engine runs take seconds; calibration loops would multiply the suite
    runtime for no statistical gain on a deterministic simulator.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
