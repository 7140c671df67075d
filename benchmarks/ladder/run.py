"""One workload, one interpreter: verify replay, then the timed replays."""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter
from dataclasses import replace
from time import perf_counter

from benchmarks.ladder import ROOT
from benchmarks.ladder.harness import Recorder, replay
from benchmarks.ladder.metrics import (
    LayerTotals,
    end_to_end,
    engine_counts,
    layer_self_table,
    mean,
    op_stats,
    per_layer_from_spans,
    quiet_ms,
    quiet_times,
    replay_spread_pct,
)
from benchmarks.ladder.probes import (
    VARIANT_WORKLOAD,
    VARIANTS,
    Machine,
    ref_kernel_ms,
    rss_mb,
    setup_layers,
    stamp,
    variant_query_ms,
)
from benchmarks.ladder.verify import Collector, DigestJudge, Verifier
from benchmarks.ladder.workloads import SPECS, build_graph, build_schedule

RESULTS = ROOT / "benchmarks" / "ladder" / "results"

#: Timed replays per run: as many as ``--seconds`` of replaying holds,
#: within these. A run in which some op has not yet been seen at the
#: machine's fast speed (see ``probes.Machine``) replays up to ``OVERTIME``
#: times ``--seconds`` and waits, off the clock, up to ``PATIENCE`` times
#: ``--seconds`` in all.
MIN_REPLAYS, MAX_REPLAYS = 3, 30
OVERTIME = 1.25
PATIENCE = 0.4
TRACED_REPLAYS = 3
SMOKE_REPLAYS = 2


def run_workload(name, seed, seconds, trace=False, smoke=False) -> dict:
    """Run one workload in this interpreter; returns its result record."""
    spec = SPECS[name]
    info = stamp(seed, smoke)
    start = perf_counter()
    graph = build_graph(spec, smoke)
    generate_s = perf_counter() - start
    schedule = build_schedule(spec, graph, seed, smoke)

    reference = None
    if spec.backend == "process":
        # the process/CSR deployment must answer as a simulated/dict one
        collector = Collector()
        replay(
            replace(spec, backend="simulated", store="dict"),
            graph.with_store("dict"),
            schedule,
            collector,
        )
        reference = collector.answers

    ref_ms = [ref_kernel_ms()]
    verifier = Verifier(graph, reference)
    verify = replay(spec, graph, schedule, verifier, Recorder())
    ref_ms.append(ref_kernel_ms())
    judge = DigestJudge(verifier.expected)
    num_ops = len(schedule.ops)
    counts = engine_counts(verify.rec, num_ops)
    verify.rec = None  # its spans are not needed again

    machine = Machine(patience=0.0 if smoke else PATIENCE * seconds)
    ops = range(-1, num_ops)  # the set-up and every op of the schedule

    def one_replay(rec=None):
        return replay(spec, graph, schedule, judge, rec, machine)

    plain, traced = [], []
    if trace:
        for _ in range(SMOKE_REPLAYS if smoke else TRACED_REPLAYS):
            traced.append(one_replay(Recorder()))
            plain.append(one_replay())
    elif smoke:
        plain = [one_replay() for _ in range(SMOKE_REPLAYS)]
    else:
        began = perf_counter()
        while len(plain) < MAX_REPLAYS:
            spent = perf_counter() - began - machine.waited
            budget = seconds
            if not all(map(machine.settled, ops)):
                budget *= OVERTIME
            if len(plain) >= MIN_REPLAYS and (
                spent + spent / len(plain) > budget
            ):
                break
            plain.append(one_replay())
    ref_ms.append(ref_kernel_ms())
    own_rss, worker_rss = rss_mb()

    attempted, failed = Counter(), Counter()
    for log in (verify, *plain, *traced):
        attempted.update(log.attempted)
        failed.update(log.failed)
    stats = op_stats(plain)
    result = {
        "workload": name,
        "stamp": {
            **info,
            "replays": len(plain),
            "settled_ops_pct": 100.0 * sum(map(machine.settled, ops)) / len(ops),
            "waited_s": machine.waited,
            "loadavg_end": os.getloadavg()[0],
            "ref_kernel_ms": statistics.median(ref_ms),
        },
        "schedule_digest": schedule.digest(),
        "ops_attempted": dict(attempted),
        "ops_failed": dict(failed),
        "errors": [e for log in (verify, *plain, *traced) for e in log.errors][:10],
        "replay_spread_pct": replay_spread_pct(stats),
    }
    if not trace:
        metrics, samples = end_to_end(
            schedule, plain, counts["bytes"], own_rss + worker_rss
        )
        result.update(metrics=metrics, samples=samples, ops=stats)
        return result

    totals = [LayerTotals(log.rec, num_ops) for log in traced]
    layers = {
        "graph.generators.generate_s": generate_s,
        "graph.vertices": graph.num_vertices,
        "graph.edges": graph.num_edges,
        **setup_layers(spec, graph, repeats=2 if smoke else 3),
        **per_layer_from_spans(totals, engine_counts(traced[0].rec, num_ops)),
        **_service_layers(schedule, verify, plain),
        "runtime.backends.worker_rss_mb": worker_rss,
        "harness.trace_overhead_pct": _overhead_pct(traced, plain),
        "harness.ref_kernel_ms": statistics.median(ref_ms),
        "harness.replay_spread_pct": result["replay_spread_pct"],
    }
    for metric, changes in VARIANTS.items():
        layers[metric] = 0.0
        if name == VARIANT_WORKLOAD:
            layers[metric] = variant_query_ms(spec, graph, schedule, judge, changes)
    with_tracer_ms = layers["obs.tracer_overhead_pct"]
    if with_tracer_ms:
        plain_ms = mean(quiet_ms(schedule, plain, "query"))
        layers["obs.tracer_overhead_pct"] = (with_tracer_ms / plain_ms - 1.0) * 100.0
    result["metrics"] = {
        metric: {"value": value, "unit": _unit(metric)}
        for metric, value in layers.items()
    }
    result["layer_self_ms"] = layer_self_table(totals)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace_{name}.json").write_text(
        json.dumps(
            {
                "workload": name,
                "stamp": result["stamp"],
                "span": ["name", "start", "end", "parent", "op"],
                "replays": [log.rec.spans for log in traced],
            }
        )
    )
    return result


def _overhead_pct(traced, plain) -> float:
    """Steady-phase quiet time with the recorder on vs off, in percent."""
    on = sum(s for s in quiet_times(traced) if s is not None)
    off = sum(s for s in quiet_times(plain) if s is not None)
    return (on / off - 1.0) * 100.0 if off else 0.0


def _service_layers(schedule, verify, plain) -> dict:
    """Cache behaviour of the served workload (zeros elsewhere)."""
    hits, misses = [], []
    queries = [
        seconds
        for op, seconds in zip(schedule.ops, quiet_times(plain))
        if op.kind == "query"
    ]  # Nones kept: the list must stay aligned with ``from_cache``
    for seconds, from_cache in zip(queries, verify.from_cache):
        if seconds is not None:
            (hits if from_cache else misses).append(seconds)
    report = verify.report.as_dict() if verify.report else {}
    cache = report.get("cache", {})
    return {
        "service.cache.hit_ratio": (
            len(hits) / (len(hits) + len(misses)) if hits or misses else 0.0
        ),
        "service.hit_query_us": mean(hits) * 1e6,
        "service.miss_query_ms": mean(misses) * 1e3,
        "service.cache.invalidated": cache.get("invalidated", 0),
        "service.rewarmed": report.get("updates", {}).get("rewarmed", 0),
    }


def _unit(metric: str) -> str:
    for suffix, unit in (
        ("_pct", "%"),
        ("_ms", "ms"),
        ("_us", "us"),
        ("_s", "s"),
        ("_mb", "MiB"),
        ("_ratio", "ratio"),
        ("bytes_per_edge", "B"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"
