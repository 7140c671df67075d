"""Run metrics: the numbers the demo's analytics panel (Fig. 3(4)) shows.

Per superstep we record compute makespan, total compute, the work units
the PIE program charged through its update parameters, bytes, message
counts and which phase (PEval / IncEval / Assemble) the superstep
belonged to; totals and a per-phase breakdown are derived.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class FaultCounters:
    """Fault-injection and recovery accounting for one engine run.

    All zeros when no :class:`~repro.runtime.faults.FaultPlan` is
    installed and nothing failed — the counters exist unconditionally so
    dashboards need no schema branch.
    """

    #: Faults fired by the injector, per class.
    crashes_injected: int = 0
    drops_injected: int = 0
    duplicates_injected: int = 0
    corruptions_injected: int = 0
    stragglers_injected: int = 0
    #: Update-lag faults fired at serving replicas (fleet-level).
    update_lags_injected: int = 0
    #: Simulated seconds of straggler delay charged through the cost model.
    straggler_delay: float = 0.0
    #: Supervisor activity.
    retries: int = 0
    backoff_time: float = 0.0
    recoveries: int = 0
    rounds_lost: int = 0
    recovery_supersteps: int = 0
    #: Transport-integrity layer activity.
    duplicates_discarded: int = 0
    corruptions_detected: int = 0
    retransmissions: int = 0

    @property
    def total_injected(self) -> int:
        """Faults fired across all classes."""
        return (
            self.crashes_injected
            + self.drops_injected
            + self.duplicates_injected
            + self.corruptions_injected
            + self.stragglers_injected
            + self.update_lags_injected
        )

    @property
    def any(self) -> bool:
        """Whether any fault fired or any recovery action ran."""
        return bool(
            self.total_injected
            or self.retries
            or self.recoveries
            or self.retransmissions
            or self.duplicates_discarded
            or self.corruptions_detected
        )

    def as_dict(self) -> dict[str, float]:
        """Counters as a plain dict (for JSON reports)."""
        return asdict(self)


@dataclass
class SuperstepMetrics:
    """Accounting for one BSP superstep."""

    index: int
    phase: str
    compute_makespan: float = 0.0
    compute_total: float = 0.0
    #: Work units the program charged (``params.charge``): all workers,
    #: and the busiest worker — the pair ``compute_total`` /
    #: ``compute_makespan`` make for seconds.
    work_total: int = 0
    work_max: int = 0
    bytes_sent: int = 0
    messages_sent: int = 0
    simulated_time: float = 0.0
    active_workers: int = 0
    #: Faults fired while this superstep ran (all classes).
    faults_injected: int = 0
    #: Supervisor retries absorbed within this superstep.
    retries: int = 0


@dataclass
class RunMetrics:
    """Aggregated accounting for one engine run."""

    engine: str = ""
    num_workers: int = 0
    supersteps: list[SuperstepMetrics] = field(default_factory=list)
    worker_compute: dict[int, float] = field(default_factory=dict)
    faults: FaultCounters = field(default_factory=FaultCounters)

    def add_superstep(self, step: SuperstepMetrics) -> None:
        """Append one superstep's metrics."""
        self.supersteps.append(step)

    def charge_worker(self, worker: int, seconds: float) -> None:
        """Accumulate compute seconds for ``worker``."""
        self.worker_compute[worker] = (
            self.worker_compute.get(worker, 0.0) + seconds
        )

    # ------------------------------------------------------------------
    # Derived totals
    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        """Number of BSP supersteps executed."""
        return len(self.supersteps)

    @property
    def total_time(self) -> float:
        """Simulated wall-clock of the whole run (seconds), added left to
        right: ``sum()`` compensates on 3.12 and not on 3.10/3.11, and
        the bench records are compared byte for byte."""
        total = 0.0
        for s in self.supersteps:
            total += s.simulated_time
        return total

    @property
    def total_compute(self) -> float:
        """Sum of all workers' compute seconds."""
        return sum(s.compute_total for s in self.supersteps)

    @property
    def total_bytes(self) -> int:
        """Total bytes shipped across all supersteps."""
        return sum(s.bytes_sent for s in self.supersteps)

    @property
    def total_messages(self) -> int:
        """Total messages sent across all supersteps."""
        return sum(s.messages_sent for s in self.supersteps)

    @property
    def communication_mb(self) -> float:
        """Communication volume in MB — Table 1's 'Comm.(MB)' column."""
        return self.total_bytes / 1e6

    def work(self, phase: str | None = None) -> int:
        """Program-charged work units of ``phase`` (default: the run)."""
        return sum(
            s.work_total
            for s in self.supersteps
            if phase is None or s.phase == phase
        )

    @property
    def critical_path_work(self) -> int:
        """The busiest worker's work, summed over supersteps: what adding
        workers divides, apart from the fixed cost of each round."""
        return sum(s.work_max for s in self.supersteps)

    def phase_time(self, phase: str) -> float:
        """Simulated time spent in supersteps of ``phase``."""
        return self.phase_breakdown().get(phase, 0.0)

    def phase_breakdown(self) -> dict[str, float]:
        """Phase -> simulated seconds (PEval vs IncEval vs Assemble)."""
        out: dict[str, float] = {}
        for s in self.supersteps:
            out[s.phase] = out.get(s.phase, 0.0) + s.simulated_time
        return out

    def load_imbalance(self) -> float:
        """Max worker compute over mean (1.0 = perfectly balanced)."""
        if not self.worker_compute:
            return 1.0
        values = list(self.worker_compute.values())
        mean = sum(values) / len(values)
        if mean == 0:
            return 1.0
        return max(values) / mean

    def as_dict(self, include_supersteps: bool = False) -> dict:
        """Metrics as a plain dict — the shared JSON schema of
        ``grape run --json`` and the service report's engine totals.

        ``include_supersteps`` adds the per-superstep trace (omitted by
        default: it grows with the fixpoint length).
        """
        out: dict = {
            "engine": self.engine,
            "num_workers": self.num_workers,
            "num_supersteps": self.num_supersteps,
            "total_time": self.total_time,
            "total_compute": self.total_compute,
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "communication_mb": self.communication_mb,
            "work": self.work(),
            "load_imbalance": self.load_imbalance(),
            "phase_breakdown": self.phase_breakdown(),
            "faults": self.faults.as_dict(),
        }
        if include_supersteps:
            out["supersteps"] = [
                {
                    "index": s.index,
                    "phase": s.phase,
                    "compute_makespan": s.compute_makespan,
                    "compute_total": s.compute_total,
                    "work_total": s.work_total,
                    "work_max": s.work_max,
                    "bytes_sent": s.bytes_sent,
                    "messages_sent": s.messages_sent,
                    "simulated_time": s.simulated_time,
                    "active_workers": s.active_workers,
                    "faults_injected": s.faults_injected,
                    "retries": s.retries,
                }
                for s in self.supersteps
            ]
        return out

    def summary(self) -> str:
        """One-line human-readable summary of the run."""
        line = (
            f"{self.engine}: time={self.total_time:.4f}s "
            f"supersteps={self.num_supersteps} "
            f"comm={self.communication_mb:.4f}MB "
            f"msgs={self.total_messages}"
        )
        if self.faults.any:
            line += (
                f" faults={self.faults.total_injected} "
                f"retries={self.faults.retries} "
                f"recoveries={self.faults.recoveries}"
            )
        return line
