"""From replays to numbers: quiet times, end-to-end and per-layer metrics.

An operation's *quiet time* is the minimum of its timings across the
replays. The program is deterministic, so replays of one schedule differ
only by additive machine noise, and the minimum is the sample with the
least of it. Metrics are statistics *across the schedule* of quiet
times: ``query_p90_ms`` is the cost of the hard inputs, not of a noisy
moment.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from repro.service import percentile  # nearest rank, 0.0 when empty

from benchmarks.ladder.harness import SETUP

MIB = float(2**20)


def quiet_times(replays) -> list[float | None]:
    """Per op, the minimum over the replays that answered it correctly."""
    quiet = []
    for samples in zip(*(r.times for r in replays)):
        good = [s for s in samples if s is not None]
        quiet.append(min(good) if good else None)
    return quiet


def op_stats(replays) -> list[dict]:
    """Per op: quiet time, median and quartiles across replays (ms)."""
    rows = []
    for samples in zip(*(r.times for r in replays)):
        good = sorted(s * 1e3 for s in samples if s is not None)
        if len(good) < 2:
            rows.append({"quiet": good[0] if good else None})
            continue
        q1, med, q3 = statistics.quantiles(good, n=4)
        rows.append({"quiet": good[0], "q1": q1, "median": med, "q3": q3})
    return rows


def replay_spread_pct(stats: list[dict]) -> float:
    """Median over ops of (q3 - q1) / median across replays, in percent."""
    spreads = [
        (row["q3"] - row["q1"]) / row["median"] * 100.0
        for row in stats
        if row.get("median")
    ]
    return statistics.median(spreads) if spreads else 0.0


def quiet_ms(schedule, replays, kind: str) -> list[float]:
    """Quiet times (ms) of the schedule's ops of one kind."""
    return [
        seconds * 1e3
        for op, seconds in zip(schedule.ops, quiet_times(replays))
        if op.kind == kind and seconds is not None
    ]


def end_to_end(schedule, replays, comm_bytes: int, rss_mb: float):
    """The seven end-to-end metrics and their sample counts."""
    queries = quiet_ms(schedule, replays, "query")
    updates = quiet_ms(schedule, replays, "update")
    setups = [r.setup_s for r in replays if r.setup_s is not None]
    walls = [sum(r.times) for r in replays if None not in r.times]
    values = {
        "setup_s": (min(setups) if setups else 0.0, "s", len(setups)),
        "query_ms": (mean(queries), "ms", len(queries)),
        "query_p90_ms": (percentile(queries, 90), "ms", len(queries)),
        "update_ms": (mean(updates), "ms", len(updates)),
        "ops_per_s": (
            len(schedule.ops) / min(walls) if walls else 0.0,
            "1/s",
            len(walls),
        ),
        "peak_rss_mb": (rss_mb, "MiB", 1),
        "comm_mb": (comm_bytes / MIB, "MiB", 1),
    }
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in values.items()
    }
    samples = {name: count for name, (_, _, count) in values.items()}
    return metrics, samples


def mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class LayerTotals:
    """Steady-phase totals of one traced replay, by span name."""

    def __init__(self, rec, num_ops: int) -> None:
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.calls = defaultdict(int)
        own = self_times(rec.spans)
        for (name, start, end, _, op), self_s in zip(rec.spans, own):
            if op == SETUP:
                name = "setup/" + name
            elif op >= num_ops:
                name = "after/" + name
            self.total[name] += end - start
            self.own[name] += self_s
            self.calls[name] += 1


def engine_counts(rec, num_ops: int) -> dict:
    """Counters of the steady phase's engine runs (they repeat exactly)."""
    counts = defaultdict(int)
    for index, (metrics, repair) in rec.results.items():
        op = rec.spans[index][4]
        if not 0 <= op < num_ops:
            continue
        counts["supersteps"] += metrics.num_supersteps
        counts["messages"] += metrics.total_messages
        counts["bytes"] += metrics.total_bytes
        if repair is not None:
            counts["batches"] += 1
            counts["scoped"] += repair.mode == "scoped"
            counts["invalidated"] += repair.invalidated
    return counts


def _quiet(replays, pick) -> float:
    """Minimum over the traced replays of one of their totals, in ms."""
    return min(pick(totals) for totals in replays) * 1e3


def per_layer_from_spans(totals: list[LayerTotals], counts: dict) -> dict:
    """The span- and counter-derived per-layer metrics (values only)."""

    def total(*names):
        return _quiet(totals, lambda t: sum(t.total[n] for n in names))

    def own(*names):
        return _quiet(totals, lambda t: sum(t.own[n] for n in names))

    def calls(name):
        return totals[0].calls[name]

    backends = "runtime.backends."
    engine = ("core.engine.run", "core.engine.run_incremental")
    submits = calls("service.submit")
    return {
        "graph.fragment.apply_delta_ms": own("core.engine.apply_delta"),
        "runtime.backends.bind_ms": total(backends + "bind"),
        "runtime.backends.execute_ms": total(backends + "execute"),
        "runtime.backends.execute_calls": calls(backends + "execute"),
        "runtime.backends.execute_self_ms": own(backends + "execute"),
        "runtime.backends.state_sync_ms": total(
            backends + "resume",
            backends + "pull_state",
            backends + "push_state",
            backends + "sync_effects",
        ),
        "algorithms.peval_ms": total("algorithms.peval"),
        "algorithms.inceval_ms": total("algorithms.inceval"),
        "algorithms.inceval_calls": calls("algorithms.inceval"),
        "algorithms.assemble_ms": total("algorithms.assemble"),
        "core.engine.self_ms": own(*engine),
        "core.engine.supersteps": counts["supersteps"],
        "core.engine.messages": counts["messages"],
        "core.engine.run_incremental_ms": total("core.engine.run_incremental"),
        "core.engine.scoped_repair_ratio": (
            counts["scoped"] / counts["batches"] if counts["batches"] else 0.0
        ),
        "core.engine.invalidated_vertices": counts["invalidated"],
        # a served cold query is its drain; setup's other engine runs
        # there are the standing registrations
        "engineapi.session.cold_query_ms": (
            total("setup/service.drain") or total("setup/core.engine.run")
        ),
        "service.submit_us": (
            total("service.submit") * 1e3 / submits if submits else 0.0
        ),
        "service.drain_ms": total("service.drain"),
        "service.apply_updates_ms": total("service.apply_updates"),
        "service.standing_repair_ms": (
            total("core.engine.run_incremental")
            if calls("service.apply_updates")
            else 0.0
        ),
        "service.report_ms": total("after/service.report"),
    }


def layer_self_table(totals: list[LayerTotals]) -> dict:
    """Steady-phase self time by layer (ms) — who holds the work."""
    table = defaultdict(float)
    for name in totals[0].own:
        if name.startswith(("setup/", "after/", "op.")):
            continue
        layer = name.rsplit(".", 1)[0]
        table[layer] += _quiet(totals, lambda t: t.own[name])
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))
