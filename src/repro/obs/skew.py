"""Plain-text straggler/skew report over the virtual timeline.

GraphX-style debugging for the PIE loop: for every superstep, which
worker's lane dominated the barrier, how unbalanced the lanes were, and
how the barrier split between compute, network and sync — all in
deterministic virtual time (:mod:`repro.obs.timeline`), never wall
clock, so the report is replay-stable.

Two entry points feed the same renderer:

* :func:`skew_report` renders live :class:`~repro.obs.timeline.RunTimeline`
  objects (used by ``grape run``/``grape serve`` when asked);
* :func:`report_from_chrome` reconstructs the timelines from an exported
  Chrome ``trace_event`` JSON document (used by ``grape report FILE``),
  so the report never needs the original run.
"""

from __future__ import annotations

from repro.obs.timeline import (
    COST,
    RunTimeline,
    StepTimeline,
    WorkerSpan,
    barrier_time,
    build_timeline,
)

_BAR_WIDTH = 30


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _rank_label(rank: int) -> str:
    return "coord" if rank < 0 else f"w{rank}"


def _is_relaxed(step: StepTimeline) -> bool:
    """Whether a step ran as a barrier-relaxed wave.

    The flag survives chrome round-trips, but older traces only carry
    the drain spans — either signal counts.
    """
    return step.relaxed or any(s.cat == "drain" for s in step.spans)


def _drain_wait(step: StepTimeline) -> float:
    """Total seconds the step's lanes idled waiting on FIFO arrivals."""
    return sum(
        float(span.args["wait"]) for span in step.spans if span.cat == "drain"
    )


def _strict_equiv(step: StepTimeline) -> float:
    """What the wave would cost under a strict-BSP barrier: its compute
    attempts and backoffs priced the way strict steps are placed."""
    compute: dict[int, float] = {}
    for span in step.spans:
        if span.cat in ("compute", "chaos"):
            compute[span.worker] = (
                compute.get(span.worker, 0.0) + span.duration
            )
    return barrier_time(compute, step.bytes, step.pairs)


def _relaxed_summary(run: RunTimeline) -> list[str]:
    """Reclaimed-slack lines for runs containing relaxed waves.

    Consecutive relaxed steps form a pipelined block; its actual extent
    (max lane end - block start) is compared against the sum of
    per-step strict-BSP equivalents to quantify the barrier slack the
    pipeline reclaimed.
    """
    waves = [step for step in run.steps if _is_relaxed(step)]
    if not waves:
        return []
    actual = 0.0
    equiv = 0.0
    block: list[StepTimeline] = []

    def flush() -> float:
        if not block:
            return 0.0
        start = min(step.start for step in block)
        end = max(step.end for step in block)
        del block[:]
        return end - start

    for step in run.steps:
        if _is_relaxed(step):
            block.append(step)
            equiv += _strict_equiv(step)
        else:
            actual += flush()
    actual += flush()
    reclaimed = equiv - actual
    pct = 100.0 * reclaimed / equiv if equiv > 0 else 0.0
    wait = sum(_drain_wait(step) for step in waves)
    return [
        "",
        (
            f"relaxed waves: {len(waves)} steps, actual "
            f"{_us(actual):.1f}us vs strict-equivalent {_us(equiv):.1f}us "
            f"— reclaimed {_us(reclaimed):.1f}us ({pct:.1f}%)"
        ),
        f"  drain waits: {_us(wait):.1f}us total across waves",
    ]


def _step_rows(run: RunTimeline) -> list[str]:
    header = (
        f"{'step':>4}  {'phase':<10} {'lanes':>5} {'lane-max(us)':>12} "
        f"{'mean(us)':>9} {'net(us)':>8} {'skew':>6}  straggler"
    )
    rows = [header, "-" * len(header)]
    for step in run.steps:
        totals = step.worker_totals
        if totals:
            mean = sum(totals.values()) / len(totals)
            # Compared at the trace's resolution, so lanes that tie in a
            # Chrome export (rounded to ns) tie in the live report too.
            worst = max(sorted(totals), key=lambda r: _us(totals[r]))
            skew = step.lane_max / mean if mean > 0 else 1.0
            ahead = step.lane_max - mean
            straggler = f"{_rank_label(worst)} (+{_us(ahead):.1f}us)"
        else:
            mean, skew, straggler = 0.0, 1.0, "-"
        suffix = "  [aborted]" if step.aborted else ""
        extra = ""
        if step.retries:
            extra += f"  retries={step.retries}"
        if _is_relaxed(step):
            extra += f"  [wave wait={_us(_drain_wait(step)):.1f}us]"
        rows.append(
            f"{step.index:>4}  {step.phase:<10} {len(totals):>5} "
            f"{_us(step.lane_max):>12.1f} {_us(mean):>9.1f} "
            f"{_us(step.network):>8.1f} {skew:>5.2f}x  "
            f"{straggler}{extra}{suffix}"
        )
    return rows


def _worker_bars(run: RunTimeline) -> list[str]:
    totals = run.worker_totals()
    if not totals:
        return []
    peak = max(totals.values())
    lines = ["", "worker totals (virtual us across all supersteps)"]
    for rank in sorted(totals):
        seconds = totals[rank]
        filled = round(_BAR_WIDTH * seconds / peak) if peak > 0 else 0
        bar = "#" * filled + "." * (_BAR_WIDTH - filled)
        lines.append(f"  {_rank_label(rank):>5}  {bar}  {_us(seconds):>10.1f}")
    workers_only = [v for r, v in totals.items() if r >= 0]
    if workers_only:
        mean = sum(workers_only) / len(workers_only)
        ratio = max(workers_only) / mean if mean > 0 else 1.0
        lines.append(f"  imbalance (max/mean over workers): {ratio:.3f}x")
    return lines


def _run_section(run: RunTimeline) -> list[str]:
    title = (
        f"run {run.run}: {run.engine} — {run.workers} workers, "
        f"{len(run.steps)} supersteps, {_us(run.duration):.1f}us virtual"
    )
    lines = [title, "=" * len(title)]
    lines += _step_rows(run)
    lines += _worker_bars(run)
    lines += _relaxed_summary(run)
    for rec in run.recoveries:
        lines.append(
            f"  recovery: worker {rec['worker']} lost at superstep "
            f"{rec['step']}, resumed from round {rec['resumed_round']} "
            f"({rec['rounds_lost']} rounds lost)"
        )
    return lines


def skew_report(runs: list[RunTimeline], metrics: dict | None = None) -> str:
    """The straggler/skew report for one or more run timelines."""
    if not runs:
        return "no engine runs recorded\n"
    blocks = ["\n".join(_run_section(run)) for run in runs]
    text = "\n\n".join(blocks)
    if metrics:
        width = max(len(n) for n in metrics)
        lines = ["", "metrics", "-------"]
        for name in sorted(metrics):
            value = metrics[name]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{width}}  {shown}")
        text += "\n" + "\n".join(lines)
    return text + "\n"


def report_for_tracer(tracer) -> str:
    """Render the skew report straight from a live tracer."""
    from repro.obs.registry import MetricsRegistry

    return skew_report(
        build_timeline(tracer.events),
        metrics=MetricsRegistry.from_tracer(tracer).as_dict(),
    )


# ----------------------------------------------------------------------
# Reconstruction from an exported Chrome trace
# ----------------------------------------------------------------------
def runs_from_chrome(data: dict) -> list[RunTimeline]:
    """Rebuild run timelines from a Chrome ``trace_event`` document.

    Inverse of the exporter for reporting purposes: worker-lane spans
    carry ``worker``/``step``/``phase`` in their args, so the per-step
    structure reconstructs exactly (lane totals, phases, recoveries).
    """
    by_pid: dict[int, dict] = {}
    for ev in data.get("traceEvents", []):
        ph = ev.get("ph")
        pid = ev.get("pid", 0)
        if pid == 0:
            continue  # service process: simulated clock, not a run
        slot = by_pid.setdefault(
            pid, {"run": None, "steps": {}, "spans": [], "recoveries": []}
        )
        if ph == "X":
            cat = ev.get("cat", "")
            args = ev.get("args", {})
            if cat == "run":
                slot["run"] = ev
            elif cat == "superstep":
                slot["steps"][args["step"]] = ev
            elif "worker" in args and "step" in args:
                slot["spans"].append(ev)
        elif ph == "i" and ev.get("cat") == "chaos":
            slot["recoveries"].append(ev)

    runs: list[RunTimeline] = []
    for pid in sorted(by_pid):
        slot = by_pid[pid]
        head = slot["run"]
        if head is None:
            continue
        run = RunTimeline(
            run=pid - 1,
            engine=head["name"],
            workers=head["args"].get("workers", 0),
            start=head["ts"] / 1e6,
            duration=head["dur"] / 1e6,
            summary={
                k: head["args"][k]
                for k in ("supersteps", "bytes", "messages", "faults")
                if k in head["args"]
            }
            or None,
        )
        for index in sorted(slot["steps"]):
            ev = slot["steps"][index]
            args = ev["args"]
            step = StepTimeline(
                index=index,
                phase=args.get("phase", "?"),
                start=ev["ts"] / 1e6,
                duration=ev["dur"] / 1e6,
                lane_max=0.0,
                network=(
                    0.0
                    if args.get("relaxed")
                    else COST.network_time(
                        args.get("bytes", 0), args.get("pairs", 0)
                    )
                ),
                bytes=args.get("bytes", 0),
                messages=args.get("messages", 0),
                pairs=args.get("pairs", 0),
                faults=args.get("faults", 0),
                retries=args.get("retries", 0),
                aborted=bool(args.get("aborted", False)),
                relaxed=bool(args.get("relaxed", False)),
            )
            run.steps.append(step)
        steps_by_index = {step.index: step for step in run.steps}
        for ev in slot["spans"]:
            args = ev["args"]
            step = steps_by_index.get(args["step"])
            if step is None:
                continue
            duration = ev["dur"] / 1e6
            step.spans.append(
                WorkerSpan(
                    worker=args["worker"],
                    name=ev["name"],
                    cat=ev.get("cat", ""),
                    start=ev["ts"] / 1e6,
                    duration=duration,
                    args=args,
                )
            )
            rank = args["worker"]
            step.worker_totals[rank] = (
                step.worker_totals.get(rank, 0.0) + duration
            )
        for step in run.steps:
            step.lane_max = max(step.worker_totals.values(), default=0.0)
        for ev in slot["recoveries"]:
            args = ev["args"]
            run.recoveries.append(
                {
                    "worker": args.get("worker"),
                    "step": args.get("superstep"),
                    "resumed_round": args.get("resumed_round"),
                    "rounds_lost": args.get("rounds_lost"),
                    "at": ev["ts"] / 1e6,
                }
            )
        runs.append(run)
    return runs


def report_from_chrome(data: dict) -> str:
    """The skew report for an exported Chrome trace document."""
    metrics = data.get("otherData", {}).get("metrics") or None
    return skew_report(runs_from_chrome(data), metrics=metrics)
