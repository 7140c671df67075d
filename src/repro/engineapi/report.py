"""Analytics formatting — the text twin of Fig. 3(4)/(5).

``format_report`` renders a run's computation/communication costs with
the fine-grained PEval vs IncEval breakdown the demo visualizes;
``comparison_table`` lines up several engines' results like Table 1.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.engine import GrapeResult
from repro.runtime.metrics import RunMetrics


def format_report(result: GrapeResult, title: str = "GRAPE run") -> str:
    """Human-readable per-run report with phase breakdown."""
    m = result.metrics
    lines = [
        title,
        "=" * len(title),
        f"engine             {m.engine}",
        f"workers            {m.num_workers}",
        f"supersteps         {m.num_supersteps}",
        f"simulated time     {m.total_time:.6f} s",
        f"communication      {m.communication_mb:.6f} MB "
        f"({m.total_messages} messages)",
        f"load imbalance     {m.load_imbalance():.3f}",
        "",
        "phase breakdown (simulated seconds):",
    ]
    for phase, secs in sorted(m.phase_breakdown().items()):
        lines.append(f"  {phase:<12} {secs:.6f}")
    if result.rounds:
        lines.append("")
        lines.append("IncEval rounds (params shipped / applied / active):")
        for info in result.rounds:
            lines.append(
                f"  round {info.round_index:>3}: "
                f"{info.params_shipped:>8} / {info.params_applied:>8} / "
                f"{info.active_workers:>3}"
            )
    if result.checker is not None:  # a checked run raises on violations
        lines.append("")
        lines.append(
            "monotonicity       OK "
            f"({result.checker.writes_seen} writes checked)"
        )
    return "\n".join(lines)


def comparison_table(
    results: Mapping[str, RunMetrics],
    time_label: str = "Time(s)",
    comm_label: str = "Comm.(MB)",
) -> str:
    """Table-1-style comparison of several runs.

    ``results`` maps a system name to its metrics; rows keep insertion
    order so callers control the presentation.
    """
    name_w = max(len("System"), max((len(k) for k in results), default=0))
    header = (
        f"{'System':<{name_w}}  {time_label:>12}  {comm_label:>12}  "
        f"{'Supersteps':>10}"
    )
    lines = [header, "-" * len(header)]
    for name, metrics in results.items():
        lines.append(
            f"{name:<{name_w}}  {metrics.total_time:>12.4f}  "
            f"{metrics.communication_mb:>12.4f}  "
            f"{metrics.num_supersteps:>10}"
        )
    return "\n".join(lines)
