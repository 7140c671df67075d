"""Chaos harness: run a registered program under a fault-plan matrix.

``grape chaos`` takes one graph + query, computes the fault-free answer,
then replays the run under a matrix of fault plans (one per fault
class, or a custom plan file) with a checkpoint policy installed, and
reports resilience: did the run still produce the fault-free answer (or
raise the documented error), and what did surviving the faults cost —
extra supersteps, extra simulated time, retries, recoveries, rounds
lost. Everything is seed-deterministic, so a resilience report is
reproducible evidence, not an anecdote.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.engineapi.registry import get_program
from repro.errors import GrapeError
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.partition.registry import get_partitioner
from repro.runtime.faults import (
    CorruptFault,
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    StragglerFault,
)
from repro.storage.dfs import SimulatedDFS


def standard_plans(seed: int = 7) -> dict[str, FaultPlan]:
    """The built-in chaos matrix: one representative plan per fault class."""
    return {
        "crash-fatal": FaultPlan(
            faults=(CrashFault(at_superstep=3, fatal=True),), seed=seed
        ),
        "crash-transient": FaultPlan(
            faults=(CrashFault(at_superstep=2, fatal=False, times=2),),
            seed=seed,
        ),
        "drop": FaultPlan(
            faults=(DropFault(probability=0.25, times=8),), seed=seed
        ),
        "duplicate": FaultPlan(
            faults=(DuplicateFault(probability=0.25, times=8),), seed=seed
        ),
        "corrupt": FaultPlan(
            faults=(CorruptFault(probability=0.25, times=8),), seed=seed
        ),
        "straggler": FaultPlan(
            faults=(StragglerFault(at_superstep=1, delay=0.05, times=3),),
            seed=seed,
        ),
    }


def answers_match(a: object, b: object, tol: float = 1e-9) -> bool:
    """Deep answer comparison with float tolerance (inf-safe)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            answers_match(a[k], b[k], tol) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            answers_match(x, y, tol) for x, y in zip(a, b)
        )
    if isinstance(a, float) or isinstance(b, float):
        try:
            return a == b or abs(a - b) <= tol
        except TypeError:
            return False
    return a == b


@dataclass
class ChaosCase:
    """Outcome of one fault plan replay."""

    name: str
    correct: bool = False
    error: str | None = None
    supersteps: int = 0
    simulated_time: float = 0.0
    faults: dict[str, float] = field(default_factory=dict)

    @property
    def outcome(self) -> str:
        """"ok" (answer matched), "error" (typed error), or "WRONG"."""
        if self.error is not None:
            return "error"
        return "ok" if self.correct else "WRONG"


@dataclass
class ChaosReport:
    """Resilience report: baseline + one :class:`ChaosCase` per plan."""

    program: str
    baseline_supersteps: int
    baseline_time: float
    cases: list[ChaosCase] = field(default_factory=list)

    @property
    def survived_all(self) -> bool:
        """No case produced a silently wrong answer."""
        return all(c.outcome != "WRONG" for c in self.cases)

    def to_dict(self) -> dict:
        """JSON-ready form of the report."""
        return {
            "program": self.program,
            "baseline": {
                "supersteps": self.baseline_supersteps,
                "simulated_time": self.baseline_time,
            },
            "survived_all": self.survived_all,
            "cases": [
                {
                    "name": c.name,
                    "outcome": c.outcome,
                    "correct": c.correct,
                    "error": c.error,
                    "supersteps": c.supersteps,
                    "simulated_time": c.simulated_time,
                    "extra_supersteps": c.supersteps - self.baseline_supersteps
                    if c.error is None else None,
                    "faults": c.faults,
                }
                for c in self.cases
            ],
        }

    def to_json(self) -> str:
        """The report as indented JSON."""
        return json.dumps(self.to_dict(), indent=2)

    def format(self) -> str:
        """Human-readable resilience table."""
        lines = [
            f"chaos: {self.program} — baseline "
            f"{self.baseline_supersteps} supersteps, "
            f"{self.baseline_time:.4f}s simulated",
            "",
            f"  {'plan':<16} {'outcome':<8} {'supersteps':>10} "
            f"{'time(s)':>9}  recovery cost",
        ]
        for c in self.cases:
            if c.error is not None:
                cost = f"raised: {c.error}"
                steps = "-"
                time_s = "-"
            else:
                extra = c.supersteps - self.baseline_supersteps
                parts = []
                if c.faults.get("retries"):
                    parts.append(f"{int(c.faults['retries'])} retries")
                if c.faults.get("recoveries"):
                    parts.append(
                        f"{int(c.faults['recoveries'])} recoveries "
                        f"({int(c.faults.get('rounds_lost', 0))} rounds lost)"
                    )
                if c.faults.get("retransmissions"):
                    parts.append(
                        f"{int(c.faults['retransmissions'])} retransmits"
                    )
                if c.faults.get("duplicates_discarded"):
                    parts.append(
                        f"{int(c.faults['duplicates_discarded'])} dups dropped"
                    )
                if c.faults.get("straggler_delay"):
                    parts.append(
                        f"{c.faults['straggler_delay']:.2f}s straggle"
                    )
                parts.append(f"{extra:+d} supersteps")
                cost = ", ".join(parts)
                steps = str(c.supersteps)
                time_s = f"{c.simulated_time:.4f}"
            lines.append(
                f"  {c.name:<16} {c.outcome:<8} {steps:>10} {time_s:>9}  "
                f"{cost}"
            )
        lines.append("")
        verdict = (
            "all fault classes absorbed or detected"
            if self.survived_all
            else "SILENT WRONG ANSWERS — resilience hole"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def run_chaos(
    graph: Graph,
    program_name: str,
    query: object,
    workers: int = 4,
    partition: str = "hash",
    seed: int = 7,
    plans: dict[str, FaultPlan] | None = None,
    checkpoint_every: int = 1,
    program_kwargs: dict | None = None,
) -> ChaosReport:
    """Replay one query under every plan; return the resilience report.

    Each case gets a fresh program instance, a fresh checkpoint
    namespace (so fatal crashes recover in-run) and the plan's own
    deterministic injector.
    """
    plans = plans if plans is not None else standard_plans(seed)
    program_kwargs = program_kwargs or {}
    assignment = get_partitioner(partition)(graph, workers)
    fragmented = build_fragments(graph, assignment, workers, partition)
    engine = GrapeEngine(fragmented)

    baseline = engine.run(get_program(program_name, **program_kwargs), query)
    report = ChaosReport(
        program=program_name,
        baseline_supersteps=baseline.metrics.num_supersteps,
        baseline_time=baseline.metrics.total_time,
    )

    with tempfile.TemporaryDirectory() as tmp:
        dfs = SimulatedDFS(tmp)
        for name, plan in plans.items():
            case = ChaosCase(name=name)
            policy = CheckpointPolicy(
                dfs, every=checkpoint_every, tag=f"chaos-{name}", keep=3
            )
            try:
                result = engine.run(
                    get_program(program_name, **program_kwargs),
                    query,
                    checkpoint=policy,
                    faults=plan,
                )
            except GrapeError as exc:
                case.error = f"{type(exc).__name__}: {exc}"
            else:
                case.correct = answers_match(result.answer, baseline.answer)
                case.supersteps = result.metrics.num_supersteps
                case.simulated_time = result.metrics.total_time
                case.faults = {
                    k: v
                    for k, v in result.metrics.faults.as_dict().items()
                    if v
                }
            report.cases.append(case)
    return report
