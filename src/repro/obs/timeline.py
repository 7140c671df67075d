"""The virtual timeline: deterministic span placement for trace export.

Wall clock is replay-hostile — two identical runs measure different
compute times — so exported traces place every span on a **virtual
clock** derived purely from deterministic quantities: shipped bytes,
communicating pairs, injected straggler delays and supervisor backoff
(all pure functions of the run). Virtual seconds have one definition,
:class:`~repro.runtime.costmodel.CostModel`, and a relaxed wave one
placement, :class:`~repro.runtime.cluster.PipelinedClocks`: the
timeline feeds both what the cluster fed them, so with a zero
:data:`COMPUTE_COST` a completed step lasts exactly its
``SuperstepMetrics.simulated_time`` under
``CostModel(deterministic=True)``.

Layout of one strict superstep starting at virtual time ``t0``:

* each worker's compute attempts run in parallel lanes from ``t0``:
  attempt k costs ``COMPUTE_COST + straggler_delay``; a retried attempt
  is followed by its backoff span; the worker's logical sends ship in a
  trailing ``ship`` span (``network_time`` of its own bytes);
* the step lasts ``superstep_time(makespan, bytes, pairs)`` — makespan
  is the slowest worker's attempts and backoffs plus the coordinator's,
  as ``SuperstepHandle.finish`` meters it; ship spans are part of the
  step's network term, not of the makespan.

A run with barrier-relaxed waves (``mode="relaxed"``) is replayed
through its own ``PipelinedClocks``: a wave resumes each worker's lane
at its *own* clock, opens it with one ``drain`` span per received
message (the wait until that message has landed, as ``open_wave``
prices it), and lasts what ``close_wave`` returns — the frontier's
advance — so fast workers visibly overlap slow ones. A strict phase
inside such a run goes through ``barrier``.

The builder consumes a :class:`~repro.obs.tracer.Tracer`'s raw events
and produces :class:`RunTimeline` objects; the Chrome exporter and the
skew report are both views over this one structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.cluster import PipelinedClocks
from repro.runtime.costmodel import CostModel
from repro.runtime.message import COORDINATOR, Message

#: Nominal virtual seconds of one compute attempt. Measured compute is
#: wall clock and cannot enter a byte-stable trace, so every attempt
#: gets this width; it is the only virtual-time constant of ``obs``.
COMPUTE_COST = 1e-4

#: The one cost model every trace is priced with (its defaults; no
#: caller needs another, so it is not a parameter).
COST = CostModel()


def barrier_time(compute: dict[int, float], nbytes: int, pairs: int) -> float:
    """Virtual seconds of one strict superstep.

    ``compute`` maps rank -> compute seconds; the makespan is the
    slowest worker's plus the coordinator's, which is serialized with
    the barrier (the arithmetic of ``SuperstepHandle.finish``).
    """
    makespan = max(
        (t for rank, t in compute.items() if rank != COORDINATOR),
        default=0.0,
    )
    makespan += compute.get(COORDINATOR, 0.0)
    return COST.superstep_time(makespan, nbytes, pairs)


@dataclass
class WorkerSpan:
    """One span on a worker's lane (absolute virtual times, seconds)."""

    worker: int  # rank; -1 is the coordinator
    name: str  # superstep phase, "backoff", "ship", or "drain"
    cat: str  # "compute" | "chaos" | "transport" | "drain"
    start: float
    duration: float
    args: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class StepTimeline:
    """One superstep on the virtual timeline."""

    index: int
    phase: str
    start: float
    duration: float
    lane_max: float
    network: float
    bytes: int = 0
    messages: int = 0
    pairs: int = 0
    faults: int = 0
    retries: int = 0
    aborted: bool = False
    #: whether this superstep ran as a barrier-relaxed wave: lanes are
    #: placed at each worker's own clock (they may overlap neighbouring
    #: steps) and the step spans the frontier's advance.
    relaxed: bool = False
    #: real wall-clock duration in ms, present only for runs executed
    #: on a wall-measuring backend (process); the virtual timeline
    #: placement never uses it.
    wall_ms: float | None = None
    spans: list[WorkerSpan] = field(default_factory=list)
    #: rank -> total virtual seconds across its spans this superstep.
    worker_totals: dict[int, float] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class RunTimeline:
    """One engine run on the virtual timeline."""

    run: int
    engine: str
    workers: int
    start: float
    duration: float = 0.0
    steps: list[StepTimeline] = field(default_factory=list)
    recoveries: list[dict] = field(default_factory=list)
    #: Deterministic totals from run_end (None for an aborted run).
    summary: dict | None = None

    @property
    def end(self) -> float:
        return self.start + self.duration

    def worker_totals(self) -> dict[int, float]:
        """rank -> total virtual compute seconds across all supersteps."""
        totals: dict[int, float] = {}
        for step in self.steps:
            for rank, seconds in step.worker_totals.items():
                totals[rank] = totals.get(rank, 0.0) + seconds
        return totals


class _StepBuilder:
    """Accumulates one superstep's raw events before placement."""

    def __init__(self, index: int, phase: str, relaxed: bool = False) -> None:
        self.index = index
        self.phase = phase
        self.relaxed = relaxed
        #: rank -> [(name, cat, duration, args), ...] in lane order.
        self.items: dict[int, list[tuple]] = {}
        #: rank -> compute seconds (attempts + backoffs), accumulated in
        #: event order exactly as ``SuperstepHandle`` meters them.
        self.compute: dict[int, float] = {}
        #: rank -> [(src, messages, bytes), ...] received at the head
        #: of a relaxed wave, in drain order.
        self.drains: dict[int, list[tuple]] = {}

    def add(
        self, rank: int, name: str, cat: str, duration: float, args: dict
    ) -> None:
        self.items.setdefault(rank, []).append((name, cat, duration, args))
        self.compute[rank] = self.compute.get(rank, 0.0) + duration

    def add_drain(
        self, rank: int, src: int, messages: int, nbytes: int
    ) -> None:
        self.drains.setdefault(rank, []).append((src, messages, nbytes))

    def finish(
        self,
        start: float,
        origin: float = 0.0,
        clocks: PipelinedClocks | None = None,
        bytes_sent: int = 0,
        messages: int = 0,
        pairs: int = 0,
        sends: dict | None = None,
        faults: int = 0,
        retries: int = 0,
        aborted: bool = False,
        wall_ms: float | None = None,
    ) -> StepTimeline:
        """Place every lane and price the step.

        A strict step places all lanes at ``start`` and lasts
        :func:`barrier_time` (through ``clocks.barrier`` inside a
        relaxed run, whose clock zero sits at ``origin``). A relaxed
        wave resumes each rank's lane at its own clock: one ``drain``
        span per received message runs until that message has landed,
        compute and ship follow, and ``clocks.close_wave`` gives the
        duration. An aborted step never reaches its barrier or close,
        in the cluster or here.
        """
        span_args = {"step": self.index, "phase": self.phase}
        spans: list[WorkerSpan] = []
        totals: dict[int, float] = {}
        ships = {
            int(rank): (int(counts[0]), int(counts[1]))
            for rank, counts in (sends or {}).items()
        }
        for rank in sorted(set(self.items) | set(self.drains) | set(ships)):
            lane_start = cursor = start
            if self.relaxed:
                lane_start = cursor = origin + clocks.clocks[rank]
                drained = self.drains.get(rank, [])
                mail = [
                    Message(src=src, dst=rank, payload=None, size=nbytes)
                    for src, _, nbytes in drained
                ]
                # Each message alone says when it lands; the whole inbox
                # (empty for a worker that is only locally active) is
                # opened last, so the wave starts where the cluster
                # started it — at the latest landing.
                for (src, msgs, nbytes), msg in zip(drained, mail):
                    landed = max(
                        cursor, origin + clocks.open_wave(rank, [msg])
                    )
                    wait = landed - cursor
                    spans.append(
                        WorkerSpan(
                            worker=rank,
                            name="drain",
                            cat="drain",
                            start=cursor,
                            duration=wait,
                            args={
                                "worker": rank,
                                **span_args,
                                "src": src,
                                "messages": msgs,
                                "bytes": nbytes,
                                "wait": wait,
                            },
                        )
                    )
                    cursor = landed
                clocks.open_wave(rank, mail)
            lane = list(self.items.get(rank, []))
            if rank in ships:
                msgs, nbytes = ships[rank]
                lane.append(
                    (
                        "ship",
                        "transport",
                        COST.network_time(nbytes, 0),
                        {"messages": msgs, "bytes": nbytes},
                    )
                )
            for name, cat, duration, args in lane:
                spans.append(
                    WorkerSpan(
                        worker=rank,
                        name=name,
                        cat=cat,
                        start=cursor,
                        duration=duration,
                        args={"worker": rank, **span_args, **args},
                    )
                )
                cursor += duration
            totals[rank] = cursor - lane_start
        network = 0.0
        if self.relaxed and aborted:
            end = max((span.end for span in spans), default=start)
            duration = max(end - start, 0.0)
        elif self.relaxed:
            duration = clocks.close_wave(self.compute)
        else:
            network = COST.network_time(bytes_sent, pairs)
            duration = barrier_time(self.compute, bytes_sent, pairs)
            if clocks is not None and not aborted:
                duration = clocks.barrier(duration)
        return StepTimeline(
            index=self.index,
            phase=self.phase,
            start=start,
            duration=duration,
            lane_max=max(totals.values(), default=0.0),
            network=network,
            bytes=bytes_sent,
            messages=messages,
            pairs=pairs,
            faults=faults,
            retries=retries,
            aborted=aborted,
            relaxed=self.relaxed,
            wall_ms=wall_ms,
            spans=spans,
            worker_totals=totals,
        )


def build_timeline(events) -> list[RunTimeline]:
    """Assemble run timelines from a tracer's raw engine events.

    Service events are ignored here (they already carry simulated
    times); see :func:`service_events`. Runs are laid out back to back
    on one global virtual clock, in recorded order. A run or superstep
    left open (an escaped fatal failure) is closed where the log ends.
    """
    #: Runs with at least one wave: their strict phases synchronize
    #: per-worker clocks too, so the whole run replays through one
    #: ``PipelinedClocks`` as it did in the cluster.
    relaxed_runs = {
        ev["run"]
        for ev in events
        if ev["kind"] == "step_begin" and ev.get("relaxed")
    }
    runs: list[RunTimeline] = []
    cursor = 0.0
    run: RunTimeline | None = None
    builder: _StepBuilder | None = None
    clocks: PipelinedClocks | None = None

    def close_step(aborted: bool, **totals) -> None:
        nonlocal builder, cursor
        if builder is None or run is None:
            builder = None
            return
        start = cursor if clocks is None else run.start + clocks.frontier()
        step = builder.finish(
            start, origin=run.start, clocks=clocks, aborted=aborted, **totals
        )
        run.steps.append(step)
        cursor = max(cursor, step.end)
        builder = None

    def close_run(summary: dict | None) -> None:
        nonlocal run
        if run is None:
            return
        close_step(aborted=True)
        run.summary = summary
        run.duration = cursor - run.start
        run = None

    for ev in events:
        kind = ev["kind"]
        if kind == "run_begin":
            close_run(None)
            run = RunTimeline(
                run=ev["run"],
                engine=ev["engine"],
                workers=ev["workers"],
                start=cursor,
            )
            runs.append(run)
            clocks = (
                PipelinedClocks(ev["workers"], COST)
                if ev["run"] in relaxed_runs
                else None
            )
        elif kind == "run_end":
            close_run(
                {
                    k: ev[k]
                    for k in ("supersteps", "bytes", "messages", "faults")
                    if k in ev
                }
                or None
            )
        elif kind == "step_begin":
            close_step(aborted=True)
            builder = _StepBuilder(
                ev["step"], ev["phase"],
                relaxed=bool(ev.get("relaxed", False)),
            )
        elif kind == "drain" and builder is not None:
            builder.add_drain(
                ev["worker"], ev["src"], ev["messages"], ev["bytes"]
            )
        elif kind == "compute_end" and builder is not None:
            delay = float(ev.get("straggler_delay", 0.0))
            builder.add(
                ev["worker"],
                builder.phase,
                "compute",
                COMPUTE_COST + delay,
                {"ok": ev["ok"], "straggler_delay": delay},
            )
        elif kind == "retry" and builder is not None:
            builder.add(
                ev["worker"],
                "backoff",
                "chaos",
                float(ev["backoff"]),
                {"attempt": ev["attempt"]},
            )
        elif kind == "step_end":
            close_step(
                aborted=False,
                bytes_sent=ev["bytes"],
                messages=ev["messages"],
                pairs=ev["pairs"],
                sends=ev["sends"],
                faults=ev["faults"],
                retries=ev["retries"],
                wall_ms=ev.get("wall_ms"),
            )
        elif kind == "step_abort":
            close_step(aborted=True)
        elif kind == "recovery" and run is not None:
            run.recoveries.append({**ev, "at": cursor})
    close_run(None)
    return runs


def service_events(events) -> list[dict]:
    """The service-side raw events (svc_*), in emission order."""
    return [ev for ev in events if ev["kind"].startswith("svc_")]


def fleet_events(events) -> list[dict]:
    """The fleet-router raw events (fleet_*), in emission order."""
    return [ev for ev in events if ev["kind"].startswith("fleet_")]
