"""The simulated cluster: workers + coordinator + metering glue.

Engines drive the cluster through a small protocol::

    cluster = Cluster(num_workers=4)
    with cluster.superstep("peval") as step:
        for wid in range(cluster.num_workers):
            with step.compute(wid):
                ...  # run worker-local sequential code
            step.send(wid, COORDINATOR, payload)
    # metrics now include the superstep's makespan + traffic

A GRAPE superstep contains *two* exchanges — coordinator routes messages
to workers, workers reply with changed parameters — so
:class:`SuperstepHandle` supports an intermediate :meth:`deliver` whose
traffic is accounted to the same superstep.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

from repro.runtime.costmodel import CostModel
from repro.runtime.message import COORDINATOR, Message
from repro.runtime.metrics import RunMetrics, SuperstepMetrics
from repro.runtime.mpi_sim import MPIController


class PipelinedClocks:
    """Per-worker virtual clocks for barrier-relaxed rounds.

    In strict BSP every superstep advances one shared clock by the
    slowest lane; in relaxed mode each worker's clock advances
    independently (drain waits + its own compute + drain overhead) and
    the run's simulated time is the *frontier* — the maximum clock. The
    metered duration of a wave is the frontier's advance since the last
    mark, so per-superstep times still sum to the run makespan.
    """

    def __init__(self, num_workers: int, cost_model: CostModel) -> None:
        self.clocks: dict[int, float] = {w: 0.0 for w in range(num_workers)}
        self._cost = cost_model
        self._mark = 0.0
        #: worker -> start of its open wave (drained, not yet closed).
        self._starts: dict[int, float] = {}
        #: whether the mail now in the inboxes left in a wave (still to
        #: be priced per message) rather than a barrier phase.
        self._after_wave = False

    def frontier(self) -> float:
        """The furthest worker clock (the run's virtual makespan)."""
        return max(self.clocks.values(), default=0.0)

    def advance(self) -> float:
        """Frontier movement since the last mark (one wave's duration)."""
        frontier = self.frontier()
        moved = frontier - self._mark
        self._mark = frontier
        return max(moved, 0.0)

    def barrier(self, seconds: float) -> float:
        """A strict phase inside a relaxed run: everyone waits for the
        frontier, then the phase's full superstep time is charged."""
        frontier = self.frontier() + seconds
        for worker in self.clocks:
            self.clocks[worker] = frontier
        self._after_wave = False
        return self.advance()

    def open_wave(self, worker: int, messages: list[Message]) -> float:
        """``worker`` drains ``messages`` and starts its next wave at the
        returned clock value.

        Mail sent in the previous wave arrives at its sender's clock
        (unchanged since that wave closed) plus its own transfer time;
        mail sent in a barrier phase was priced by that phase's
        ``superstep_time`` and is already available at the frontier
        every clock was synchronized to.
        """
        start = self.clocks[worker]
        if self._after_wave:
            network_time = self._cost.network_time
            for msg in messages:
                arrival = self.clocks[msg.src] + network_time(msg.size, 1)
                if arrival > start:
                    start = arrival
        self._starts[worker] = start
        return start

    def close_wave(self, compute: dict[int, float]) -> float:
        """Advance every drained worker past its metered compute plus the
        drain handoff; returns the wave's duration (frontier movement)."""
        cost = self._cost
        for worker, start in self._starts.items():
            self.clocks[worker] = (
                start
                + cost.compute_scale * compute.get(worker, 0.0)
                + cost.drain_overhead
            )
        self._starts.clear()
        self._after_wave = True
        return self.advance()


class SuperstepHandle:
    """Accounting context for one BSP superstep."""

    def __init__(
        self, cluster: "Cluster", phase: str, relaxed: bool = False
    ) -> None:
        self._cluster = cluster
        self.phase = phase
        #: True for a barrier-relaxed wave: simulated time is the clock
        #: frontier's advance, not makespan + network + barrier.
        self.relaxed = relaxed
        self.index = len(cluster.metrics.supersteps)
        self._compute: dict[int, float] = {}
        #: worker -> work units its program charged this superstep.
        self._work: dict[int, int] = {}
        self._bytes = 0
        self._messages = 0
        self._pairs = 0
        #: src rank -> [messages, bytes] shipped via :meth:`send`.
        self._sends: dict[int, list[int]] = {}
        #: real wall-clock start, only when the cluster measures wall
        #: time (process backend); None keeps golden traces byte-stable.
        self._wall_start = (
            time.perf_counter() if cluster.measure_wall else None
        )
        faults = cluster.metrics.faults
        self._faults_base = faults.total_injected
        self._retries_base = faults.retries

    @property
    def tracer(self):
        """The cluster's tracer (None when untraced); for backends."""
        return self._cluster.tracer

    @contextmanager
    def compute(self, worker: int) -> Iterator[None]:
        """Measure a worker's (or the coordinator's) compute interval.

        With a fault injector installed, entering the interval may raise
        the scheduled :class:`~repro.errors.WorkerFailure`, and straggler
        delays are charged on top of the measured time. Under
        ``CostModel(deterministic=True)`` the wall clock is never read;
        only the (deterministic) straggler delay is charged.
        """
        injector = self._cluster.injector
        tracer = self._cluster.tracer
        if tracer is not None:
            tracer.compute_begin(worker)
        delay = 0.0
        try:
            if injector is not None:
                delay = injector.on_compute(worker, self.index, self.phase)
        except BaseException:
            if tracer is not None:
                tracer.compute_end(worker, ok=False)
            raise
        deterministic = self._cluster.cost_model.deterministic
        start = 0.0 if deterministic else time.perf_counter()
        ok = True
        try:
            yield
        except BaseException:
            ok = False
            raise
        finally:
            if deterministic:
                elapsed = delay
            else:
                elapsed = time.perf_counter() - start + delay
            self._compute[worker] = self._compute.get(worker, 0.0) + elapsed
            if tracer is not None:
                tracer.compute_end(worker, ok=ok, straggler_delay=delay)

    def charge(self, worker: int, seconds: float) -> None:
        """Add pre-measured compute seconds for ``worker``."""
        self._compute[worker] = self._compute.get(worker, 0.0) + seconds

    def work(self, worker: int, units: int) -> None:
        """Book ``units`` of program-charged work to ``worker``."""
        self._work[worker] = self._work.get(worker, 0) + units

    def send(self, src: int, dst: int, payload: object) -> Message:
        """Send a message for delivery in the next superstep."""
        msg = self._cluster.mpi.send(src, dst, payload)
        counts = self._sends.setdefault(src, [0, 0])
        counts[0] += 1
        counts[1] += msg.size
        return msg

    def deliver(self) -> None:
        """Mid-superstep flush: deliver queued messages now.

        Traffic is still charged to this superstep; use it when the
        coordinator's routed messages must reach workers within the same
        BSP round (the paper's step (a) then step (b)).
        """
        traffic = self._cluster.mpi.flush()
        self._bytes += traffic.bytes_sent
        self._messages += traffic.messages_sent
        self._pairs += traffic.communicating_pairs

    def finish(self) -> SuperstepMetrics:
        """Barrier: flush traffic, compute simulated time, record metrics."""
        self.deliver()
        worker_times = [
            t for w, t in self._compute.items() if w != COORDINATOR
        ]
        makespan = max(worker_times, default=0.0)
        # Coordinator work is serialized with the workers' barrier.
        makespan += self._compute.get(COORDINATOR, 0.0)
        clocks = self._cluster.clocks
        if clocks is None:
            simulated = self._cluster.cost_model.superstep_time(
                makespan, self._bytes, self._pairs
            )
        elif self.relaxed:
            simulated = clocks.close_wave(self._compute)
        else:
            # A strict phase inside a relaxed run synchronizes every
            # clock at the frontier plus the full superstep time.
            simulated = clocks.barrier(
                self._cluster.cost_model.superstep_time(
                    makespan, self._bytes, self._pairs
                )
            )
        faults = self._cluster.metrics.faults
        metrics = SuperstepMetrics(
            index=self.index,
            phase=self.phase,
            compute_makespan=makespan,
            compute_total=sum(self._compute.values()),
            work_total=sum(self._work.values()),
            work_max=max(self._work.values(), default=0),
            bytes_sent=self._bytes,
            messages_sent=self._messages,
            simulated_time=simulated,
            active_workers=len(worker_times),
            faults_injected=faults.total_injected - self._faults_base,
            retries=faults.retries - self._retries_base,
        )
        self._cluster.metrics.add_superstep(metrics)
        for worker, seconds in self._compute.items():
            self._cluster.metrics.charge_worker(worker, seconds)
        wall_ms = None
        if self._wall_start is not None:
            wall_ms = (time.perf_counter() - self._wall_start) * 1000.0
        tracer = self._cluster.tracer
        if tracer is not None:
            tracer.step_end(
                self.index,
                self.phase,
                bytes_sent=self._bytes,
                messages=self._messages,
                pairs=self._pairs,
                sends=self._sends,
                faults=metrics.faults_injected,
                retries=metrics.retries,
                wall_ms=wall_ms,
            )
        return metrics


class Cluster:
    """``n`` simulated workers plus coordinator ``P0``."""

    def __init__(
        self,
        num_workers: int,
        cost_model: CostModel | None = None,
        engine_name: str = "",
        injector=None,
        tracer=None,
        measure_wall: bool = False,
        mode: str = "strict",
    ) -> None:
        self.num_workers = num_workers
        self.cost_model = cost_model or CostModel()
        self.injector = injector
        self.tracer = tracer
        #: record real wall-clock per superstep (process backend); the
        #: virtual timeline and metrics are unaffected.
        self.measure_wall = measure_wall
        self.mpi = MPIController(num_workers, injector=injector)
        #: relaxed-mode per-worker virtual clocks (None on strict
        #: clusters).
        self.clocks: PipelinedClocks | None = (
            PipelinedClocks(num_workers, self.cost_model)
            if mode == "relaxed"
            else None
        )
        self.metrics = RunMetrics(engine=engine_name, num_workers=num_workers)
        if injector is not None:
            # One counter object end to end: the injector fires into the
            # same FaultCounters the run's metrics expose.
            self.metrics.faults = injector.counters

    @contextmanager
    def superstep(
        self, phase: str, relaxed: bool = False
    ) -> Iterator[SuperstepHandle]:
        """Open a superstep; on exit the barrier flushes and is metered.

        A superstep torn down by an escaping exception (fatal worker
        loss) stays out of the metrics, exactly as before; the tracer —
        if any — records the abort. ``relaxed=True`` marks a
        barrier-relaxed wave (frontier-delta timing).
        """
        handle = SuperstepHandle(self, phase, relaxed=relaxed)
        if self.tracer is not None:
            self.tracer.step_begin(handle.index, phase, relaxed=relaxed)
        try:
            yield handle
        except BaseException:
            if self.tracer is not None:
                self.tracer.step_abort(handle.index, phase)
            raise
        handle.finish()

    def receive(self, rank: int) -> list[Message]:
        """Drain and return the inbox of ``rank``."""
        return self.mpi.receive(rank)
