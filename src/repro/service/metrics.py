"""Service-level metering: latency percentiles, cache traffic, ΔG work.

Everything here is derived from *simulated* time and deterministic
counters, so two replays of the same workload trace produce
byte-identical reports — a :class:`ServiceReport` is reproducible
evidence, in the same spirit as the chaos report.

The per-run engine numbers aggregate through
:meth:`~repro.runtime.metrics.RunMetrics.as_dict`, so ``grape run
--json`` and ``grape serve --json`` share one metrics vocabulary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.runtime.costmodel import CostModel
from repro.runtime.metrics import RunMetrics

#: The serving clock's prices: the engine's own cost model. A run's
#: ``total_time`` may contain measured wall time (not replay-stable), so
#: the service charges each run its supersteps' network and barrier
#: terms only — deterministic counters, hence byte-identical reports
#: across replays, and the unit engine makespans are quoted in.
_COST = CostModel()


def run_cost(metrics: RunMetrics) -> float:
    """Deterministic simulated cost of one engine run."""
    cost = 0.0
    # Added left to right: ``sum`` compensates on some interpreters and
    # not on others, and reports are compared byte for byte.
    for step in metrics.supersteps:
        cost += _COST.superstep_time(
            0.0, step.bytes_sent, step.messages_sent
        )
    return cost


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``q`` in [0, 100]; returns 0.0 for an empty sample.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[min(int(rank), len(ordered)) - 1]


@dataclass
class ClassStats:
    """Per-query-class serving counters."""

    submitted: int = 0
    completed: int = 0
    rejected: int = 0
    cache_hits: int = 0
    #: Simulated seconds from admission to completion, one per request.
    latencies: list[float] = field(default_factory=list)
    #: Engine totals over the class's cache misses (RunMetrics schema;
    #: time is the simulated :func:`run_cost`, not measured wall time).
    engine_time: float = 0.0
    engine_supersteps: int = 0
    engine_messages: int = 0

    def record_run(self, metrics: RunMetrics) -> float:
        """Fold one engine run into the class; returns its :func:`run_cost`."""
        cost = run_cost(metrics)
        self.engine_time += cost
        self.engine_supersteps += metrics.num_supersteps
        self.engine_messages += metrics.total_messages
        return cost

    def as_dict(self) -> dict:
        """Counters plus derived latency percentiles."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (
                self.cache_hits / self.completed if self.completed else 0.0
            ),
            "latency_p50": percentile(self.latencies, 50),
            "latency_p95": percentile(self.latencies, 95),
            "latency_max": max(self.latencies) if self.latencies else 0.0,
            "engine": {
                "simulated_time": self.engine_time,
                "num_supersteps": self.engine_supersteps,
                "total_messages": self.engine_messages,
            },
        }


@dataclass
class StandingStats:
    """Lifecycle counters for one registered standing query."""

    name: str
    query_class: str
    repairs: int = 0
    #: Settled-vertex (or equivalent) work of the initial full run.
    cold_work: int = 0
    #: Work absorbed incrementally across all update batches.
    incremental_work: int = 0
    #: Work a full recomputation did across all *verified* batches.
    full_work: int = 0
    incremental_time: float = 0.0
    full_time: float = 0.0
    verified_batches: int = 0
    mismatches: int = 0

    def as_dict(self) -> dict:
        """Counters plus the incremental-vs-full work ratio."""
        return {
            "name": self.name,
            "query_class": self.query_class,
            "repairs": self.repairs,
            "cold_work": self.cold_work,
            "incremental_work": self.incremental_work,
            "full_work": self.full_work,
            "work_ratio": (
                self.incremental_work / self.full_work
                if self.full_work
                else None
            ),
            "incremental_time": self.incremental_time,
            "full_time": self.full_time,
            "verified_batches": self.verified_batches,
            "mismatches": self.mismatches,
        }


@dataclass
class UpdateStats:
    """Mutation-side counters (ΔG absorption)."""

    batches: int = 0
    edges: int = 0
    deletes: int = 0
    reweights: int = 0
    #: Evicted hot cache entries recomputed eagerly at the new version.
    rewarmed: int = 0

    def as_dict(self) -> dict:
        return {
            "batches": self.batches,
            "edges": self.edges,
            "deletes": self.deletes,
            "reweights": self.reweights,
            "rewarmed": self.rewarmed,
        }


@dataclass
class ServiceReport:
    """Snapshot of a service's lifetime metrics (JSON- and human-ready)."""

    graph_version: int
    simulated_time: float
    num_workers: int
    queue: dict
    cache: dict
    classes: dict[str, dict]
    standing: list[dict]
    updates: dict

    # ------------------------------------------------------------------
    @property
    def survived(self) -> bool:
        """No standing query ever diverged from a full recomputation."""
        return all(s["mismatches"] == 0 for s in self.standing)

    @property
    def cache_hit_rate(self) -> float:
        """Global cache hit rate over all lookups."""
        return self.cache.get("hit_rate", 0.0)

    def as_dict(self) -> dict:
        """The full report as one JSON-ready dict."""
        return {
            "graph_version": self.graph_version,
            "simulated_time": self.simulated_time,
            "num_workers": self.num_workers,
            "survived": self.survived,
            "queue": self.queue,
            "cache": self.cache,
            "classes": self.classes,
            "standing": self.standing,
            "updates": self.updates,
        }

    def to_json(self) -> str:
        """The report as indented JSON."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def format(self) -> str:
        """Human-readable serving report."""
        lines = [
            f"service report — graph v{self.graph_version}, "
            f"{self.num_workers} workers, "
            f"{self.simulated_time:.4f}s simulated",
            "",
            f"  queue: max depth {self.queue['max_depth']}, "
            f"{self.queue['rejected']} shed "
            f"(capacity {self.queue['capacity']}, "
            f"concurrency {self.queue['concurrency']})",
            f"  cache: {self.cache['hits']} hits / "
            f"{self.cache['misses']} misses "
            f"({self.cache['hit_rate']:.1%}), "
            f"{self.cache['invalidated']} invalidated on mutation",
            "",
            f"  {'class':<10} {'done':>5} {'hits':>5} {'shed':>5} "
            f"{'p50(s)':>9} {'p95(s)':>9}",
        ]
        for name in sorted(self.classes):
            c = self.classes[name]
            lines.append(
                f"  {name:<10} {c['completed']:>5} {c['cache_hits']:>5} "
                f"{c['rejected']:>5} {c['latency_p50']:>9.4f} "
                f"{c['latency_p95']:>9.4f}"
            )
        if self.standing:
            lines.append("")
            lines.append(
                f"  standing queries "
                f"({self.updates['batches']} update batches, "
                f"{self.updates['edges']} edges absorbed):"
            )
            for s in self.standing:
                ratio = s["work_ratio"]
                ratio_s = f"{ratio:.1%} of full" if ratio is not None else "n/a"
                verdict = (
                    "VERIFIED"
                    if s["verified_batches"] and not s["mismatches"]
                    else (f"{s['mismatches']} MISMATCHES"
                          if s["mismatches"] else "unverified")
                )
                lines.append(
                    f"    {s['name']:<14} {s['repairs']} repairs, "
                    f"incremental work {s['incremental_work']} "
                    f"({ratio_s}); {verdict}"
                )
        lines.append("")
        verdict = (
            "standing answers identical to full recomputation"
            if self.survived
            else "STANDING ANSWER DIVERGENCE — serving hole"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)
