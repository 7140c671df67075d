"""The span tracer: a pure observer of engine, runtime and service.

A :class:`Tracer` is an append-only event log. Instrumentation hooks in
:class:`~repro.runtime.cluster.Cluster`,
:class:`~repro.core.engine.GrapeEngine`,
:class:`~repro.core.supervisor.Supervisor`,
:class:`~repro.service.service.GrapeService` and
:class:`~repro.service.fleet.FleetRouter` record flat events; exporters
later assemble them into spans on a **virtual timeline** derived from
the deterministic cost model (:mod:`repro.obs.timeline`) — never from
wall clock.

Five lifecycle methods own the run and superstep state; every other
event is ``tracer.event(kind, **fields)``, which stamps the open run
(``run``) and the open superstep (``step``, ``phase``) onto the fields.
A field passed explicitly wins over its stamp. A new span is a new
``kind``, not a new method.

Purity contract: every event payload is a pure function of the run's
deterministic execution (counts, byte sizes, simulated delays). The
tracer never feeds anything back into the computation, so a run with a
tracer attached and a run without one produce byte-identical answers,
metrics and checkpoint payloads (locked down by the tracer axis of
``tests/property/test_lattice.py``).

Span taxonomy (the ``kind`` field of raw events):

========================  ====================================================
``run_begin/run_end``     one engine run (PEval -> IncEval* -> Assemble)
``step_begin/step_end``   one BSP superstep (phase: peval / inceval / repair /
                          update / invalidate / recover / assemble)
``step_abort``            a superstep torn down by a fatal worker loss
``compute_end``           one worker (or coordinator, rank -1) compute
                          attempt: ``worker``, ``ok``, ``straggler_delay``
                          — all three at every call site, the delay
                          ``0.0`` when none was injected
``drain``                 one inbound channel drained at a relaxed wave
``retry``                 supervisor absorbed a transient failure (backoff)
``recovery``              in-run checkpoint recovery of a fatal loss
``svc_reject``            one query shed by admission backpressure
``svc_query``             one served query (queue wait + lane execution)
``svc_update``            one ΔG batch (drain, repair, re-warm)
``svc_standing``          cold registration of a standing query
``fleet_route``           one fleet-served query: the winning ``replica``
                          (-1 for the degraded cache) and its ``outcome``,
                          ``fresh`` / ``stale_replica`` / ``stale_cache`` /
                          ``recovered``
``fleet_hedge``           a hedged duplicate dispatched to a second replica
``fleet_failover``        a retry re-routed to a different replica
``fleet_breaker``         a circuit breaker state transition
``fleet_catchup``         a rejoining replica replayed its missed ΔG suffix
========================  ====================================================
"""

from __future__ import annotations

from typing import Iterator


class Tracer:
    """Append-only observability event log (one per process/session).

    Recording is one dict append and must stay free of side effects on
    the traced computation. The tracer survives across runs — a serving
    session records every engine run it dispatches into the same log.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._run = -1
        self._run_open = False
        #: ``step``/``phase`` of the open superstep; empty between steps.
        self._step: dict = {}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def select(self, *kinds: str) -> list[dict]:
        """Events of the given kinds, in emission order."""
        wanted = set(kinds)
        return [ev for ev in self.events if ev["kind"] in wanted]

    def event(self, kind: str, **fields: object) -> None:
        """Record one event, stamped with the open run and superstep."""
        stamp = {"run": self._run} if self._run_open else {}
        self.events.append({"kind": kind, **stamp, **self._step, **fields})

    # ------------------------------------------------------------------
    # Lifecycle: the run and superstep that event() stamps
    # ------------------------------------------------------------------
    def run_begin(self, engine: str, workers: int) -> int:
        """Open a run span; returns its stable run id.

        A run left open by an escaped exception (e.g. an unrecoverable
        fatal crash) is auto-closed so the log never nests runs.
        """
        if self._run_open:
            self.run_end(None)
        self._run += 1
        self._run_open = True
        self._step = {}
        self.event("run_begin", engine=engine, workers=workers)
        return self._run

    def run_end(self, metrics=None) -> None:
        """Close the current run, recording its deterministic totals.

        Only replay-stable counters are recorded (supersteps, bytes,
        messages, fault counters) — simulated/wall times stay out of the
        log so exported traces are byte-stable across re-runs.
        """
        if not self._run_open:
            return
        totals: dict = {}
        if metrics is not None:
            totals = {
                "supersteps": metrics.num_supersteps,
                "bytes": metrics.total_bytes,
                "messages": metrics.total_messages,
                "faults": metrics.faults.as_dict(),
            }
        self.event("run_end", **totals)
        self._run_open = False

    def step_begin(
        self, index: int, phase: str, relaxed: bool = False
    ) -> None:
        """Open superstep ``index`` of the current run.

        ``relaxed=True`` marks a barrier-relaxed wave; the flag is only
        written when set, so strict-run traces stay byte-identical to
        their pre-relaxed goldens.
        """
        self._step = {"step": index, "phase": phase}
        self.event("step_begin", **({"relaxed": True} if relaxed else {}))

    def step_end(
        self,
        index: int,
        phase: str,
        bytes_sent: int,
        messages: int,
        pairs: int,
        sends: dict[int, list[int]],
        faults: int,
        retries: int,
        wall_ms: float | None = None,
    ) -> None:
        """Close a superstep with its barrier traffic totals.

        ``sends`` maps sender rank -> ``[messages, bytes]`` shipped this
        superstep (logical sends; injected retransmissions are part of
        the step totals only). ``wall_ms`` is real wall-clock duration,
        recorded only by wall-measuring clusters (process backend) so
        deterministic golden traces never carry it.
        """
        self.event(
            "step_end",
            step=index,
            phase=phase,
            bytes=bytes_sent,
            messages=messages,
            pairs=pairs,
            sends={w: list(counts) for w, counts in sorted(sends.items())},
            faults=faults,
            retries=retries,
            **({"wall_ms": wall_ms} if wall_ms is not None else {}),
        )
        self._step = {}

    def step_abort(self, index: int, phase: str) -> None:
        """A superstep torn down before its barrier (fatal worker loss)."""
        self.event("step_abort", step=index, phase=phase)
        self._step = {}
