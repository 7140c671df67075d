"""Chrome ``trace_event`` export of a tracer's virtual timeline.

The output opens directly in ``chrome://tracing`` or
https://ui.perfetto.dev: one process per engine run (plus process 0 for
the serving layer), one thread per worker lane, complete ("X") spans
for compute/backoff/ship/deliver intervals, async ("b"/"e") spans for
service queue waits, and instant ("i") events for recoveries and shed
requests.

Determinism contract: timestamps come from the virtual timeline
(:mod:`repro.obs.timeline`) and the service's simulated clock — never
wall clock — span ids are assigned in emission order, and the JSON is
dumped with sorted keys. Re-running the same seeded workload therefore
reproduces the export byte for byte (the golden-file tests in
``tests/obs/`` hold us to this).
"""

from __future__ import annotations

import json

from repro.obs.timeline import RunTimeline, build_timeline
from repro.obs.tracer import Tracer

#: Format tag stamped into ``otherData`` (bump on schema changes).
FORMAT = "repro.obs.chrome/1"

#: Thread ids inside a run's process.
TID_STEPS = 0  # run + superstep umbrella spans
TID_COORD = 1  # coordinator (rank -1)
_WORKER_TID_BASE = 2  # worker w -> tid w + 2

#: Thread ids inside the service process (pid 0).
TID_SVC_ADMISSION = 0
_LANE_TID_BASE = 1  # lane k -> tid k + 1

#: Thread ids inside the fleet process (also pid 0: a fleet tracer is
#: attached to the router only, so service/fleet tids never coexist).
TID_FLEET_ROUTER = 0
_REPLICA_TID_BASE = 1  # replica r -> tid r + 1

_SVC_PID = 0
_RUN_PID_BASE = 1  # run k -> pid k + 1


def _us(seconds: float) -> float:
    """Virtual seconds -> trace microseconds (ns resolution, stable)."""
    return round(seconds * 1e6, 3)


def _tid(rank: int) -> int:
    return TID_COORD if rank < 0 else rank + _WORKER_TID_BASE


class _Emitter:
    """Accumulates trace events, assigning stable sequential span ids."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._next_id = 1

    def meta(self, pid: int, tid: int | None, name: str, value: str) -> None:
        ev: dict = {
            "ph": "M",
            "pid": pid,
            "name": name,
            "args": {"name": value},
        }
        if tid is not None:
            ev["tid"] = tid
        self.events.append(ev)

    def span(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: str,
        start: float,
        duration: float,
        args: dict,
    ) -> None:
        self.events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "id": self._next_id,
                "name": name,
                "cat": cat,
                "ts": _us(start),
                "dur": _us(duration),
                "args": args,
            }
        )
        self._next_id += 1

    def instant(
        self, pid: int, tid: int, name: str, cat: str, at: float, args: dict
    ) -> None:
        self.events.append(
            {
                "ph": "i",
                "s": "p",
                "pid": pid,
                "tid": tid,
                "id": self._next_id,
                "name": name,
                "cat": cat,
                "ts": _us(at),
                "args": args,
            }
        )
        self._next_id += 1

    def async_pair(
        self,
        pid: int,
        tid: int,
        name: str,
        cat: str,
        ident: str,
        start: float,
        finish: float,
        args: dict,
    ) -> None:
        base = {"pid": pid, "tid": tid, "name": name, "cat": cat, "id": ident}
        self.events.append({**base, "ph": "b", "ts": _us(start), "args": args})
        self.events.append({**base, "ph": "e", "ts": _us(finish), "args": {}})


def _emit_run(emitter: _Emitter, run: RunTimeline) -> None:
    pid = run.run + _RUN_PID_BASE
    emitter.meta(pid, None, "process_name", f"run {run.run}: {run.engine}")
    emitter.meta(pid, TID_STEPS, "thread_name", "supersteps")
    emitter.meta(pid, TID_COORD, "thread_name", "P0 coordinator")
    for w in range(run.workers):
        emitter.meta(pid, _tid(w), "thread_name", f"worker {w}")

    run_args: dict = {"engine": run.engine, "workers": run.workers}
    if run.summary:
        run_args.update(
            {k: v for k, v in run.summary.items() if k != "faults"}
        )
        run_args["faults"] = {
            k: v for k, v in sorted(run.summary["faults"].items()) if v
        }
    emitter.span(
        pid, TID_STEPS, run.engine, "run", run.start, run.duration, run_args
    )
    for step in run.steps:
        step_args = {
            "step": step.index,
            "phase": step.phase,
            "bytes": step.bytes,
            "messages": step.messages,
            "pairs": step.pairs,
            "faults": step.faults,
            "retries": step.retries,
            "aborted": step.aborted,
            "active_workers": len(step.worker_totals),
        }
        if step.wall_ms is not None:
            # Only wall-measuring backends emit this; deterministic
            # golden traces stay byte-stable without it.
            step_args["wall_ms"] = step.wall_ms
        if step.relaxed:
            # Same byte-stability rule: strict traces never carry it.
            step_args["relaxed"] = True
        emitter.span(
            pid,
            TID_STEPS,
            f"{step.phase} #{step.index}",
            "superstep",
            step.start,
            step.duration,
            step_args,
        )
        for span in step.spans:
            emitter.span(
                pid,
                _tid(span.worker),
                span.name,
                span.cat,
                span.start,
                span.duration,
                span.args,
            )
        if step.network > 0:
            emitter.span(
                pid,
                TID_STEPS,
                "deliver",
                "transport",
                step.start + step.lane_max,
                step.network,
                {
                    "step": step.index,
                    "bytes": step.bytes,
                    "messages": step.messages,
                    "pairs": step.pairs,
                },
            )
    for rec in run.recoveries:
        emitter.instant(
            pid,
            TID_COORD,
            "checkpoint-recovery",
            "chaos",
            rec["at"],
            {
                "worker": rec["worker"],
                "superstep": rec["step"],
                "resumed_round": rec["resumed_round"],
                "rounds_lost": rec["rounds_lost"],
            },
        )


def _emit_service(emitter: _Emitter, events: list[dict]) -> None:
    if not events:
        return
    emitter.meta(_SVC_PID, None, "process_name", "grape-service")
    emitter.meta(_SVC_PID, TID_SVC_ADMISSION, "thread_name", "admission")
    lanes = sorted(
        {ev["lane"] for ev in events if ev["kind"] == "svc_query"}
    )
    for lane in lanes:
        emitter.meta(
            _SVC_PID, lane + _LANE_TID_BASE, "thread_name", f"lane {lane}"
        )
    for ev in events:
        kind = ev["kind"]
        if kind == "svc_query":
            emitter.async_pair(
                _SVC_PID,
                TID_SVC_ADMISSION,
                f"queue:{ev['query_class']}",
                "service.queue",
                f"q{ev['seq']}",
                ev["submit"],
                ev["start"],
                {"seq": ev["seq"]},
            )
            emitter.span(
                _SVC_PID,
                ev["lane"] + _LANE_TID_BASE,
                ev["query_class"],
                "service.lane",
                ev["start"],
                ev["finish"] - ev["start"],
                {
                    "seq": ev["seq"],
                    "from_cache": ev["from_cache"],
                    "cost": ev["cost"],
                    "version": ev["version"],
                },
            )
        elif kind == "svc_update":
            emitter.span(
                _SVC_PID,
                TID_SVC_ADMISSION,
                f"update v{ev['version']}",
                "service.update",
                ev["start"],
                max(ev["finish"] - ev["start"], 0.0),
                {
                    "version": ev["version"],
                    "inserts": ev["inserts"],
                    "deletes": ev["deletes"],
                    "reweights": ev["reweights"],
                    "invalidated": ev["invalidated"],
                    "repaired": ev["repaired"],
                },
            )
        elif kind == "svc_standing":
            emitter.span(
                _SVC_PID,
                TID_SVC_ADMISSION,
                f"standing:{ev['name']}",
                "service.standing",
                ev["start"],
                max(ev["finish"] - ev["start"], 0.0),
                {"query_class": ev["query_class"]},
            )
        elif kind == "svc_reject":
            emitter.instant(
                _SVC_PID,
                TID_SVC_ADMISSION,
                f"shed:{ev['query_class']}",
                "service.reject",
                ev["clock"],
                {},
            )


def _emit_fleet(emitter: _Emitter, events: list[dict]) -> None:
    if not events:
        return
    emitter.meta(_SVC_PID, None, "process_name", "grape-fleet")
    emitter.meta(_SVC_PID, TID_FLEET_ROUTER, "thread_name", "router")
    replicas: set[int] = set()
    for ev in events:
        for key in ("replica", "primary", "secondary", "from_replica",
                    "to_replica"):
            rid = ev.get(key, -1)
            if isinstance(rid, int) and rid >= 0:
                replicas.add(rid)
    for rid in sorted(replicas):
        emitter.meta(
            _SVC_PID, rid + _REPLICA_TID_BASE, "thread_name",
            f"replica {rid}",
        )
    for ev in events:
        kind = ev["kind"]
        if kind == "fleet_route":
            tid = (
                ev["replica"] + _REPLICA_TID_BASE
                if ev["replica"] >= 0
                else TID_FLEET_ROUTER
            )
            emitter.span(
                _SVC_PID,
                tid,
                f"route:{ev['query_class']}",
                "fleet.route",
                ev["start"],
                max(ev["finish"] - ev["start"], 0.0),
                {
                    "seq": ev["seq"],
                    "replica": ev["replica"],
                    "attempts": ev["attempts"],
                    "outcome": ev["outcome"],
                    "stale": ev["stale"],
                    "staleness": ev["staleness"],
                },
            )
        elif kind == "fleet_hedge":
            emitter.instant(
                _SVC_PID,
                TID_FLEET_ROUTER,
                "hedge",
                "fleet.hedge",
                ev["clock"],
                {
                    "seq": ev["seq"],
                    "primary": ev["primary"],
                    "secondary": ev["secondary"],
                    "winner": ev["winner"],
                },
            )
        elif kind == "fleet_failover":
            emitter.instant(
                _SVC_PID,
                TID_FLEET_ROUTER,
                "failover",
                "fleet.failover",
                ev["clock"],
                {
                    "seq": ev["seq"],
                    "from_replica": ev["from_replica"],
                    "to_replica": ev["to_replica"],
                    "attempt": ev["attempt"],
                    "backoff": ev["backoff"],
                },
            )
        elif kind == "fleet_breaker":
            emitter.instant(
                _SVC_PID,
                ev["replica"] + _REPLICA_TID_BASE,
                f"breaker:{ev['state']}",
                "fleet.breaker",
                ev["clock"],
                {"replica": ev["replica"], "failures": ev["failures"]},
            )
        elif kind == "fleet_catchup":
            emitter.instant(
                _SVC_PID,
                ev["replica"] + _REPLICA_TID_BASE,
                "catchup",
                "fleet.catchup",
                ev["clock"],
                {
                    "replica": ev["replica"],
                    "from_version": ev["from_version"],
                    "to_version": ev["to_version"],
                    "batches": ev["batches"],
                    "audit_ok": ev["audit_ok"],
                },
            )


def trace_metrics(events: list[dict]) -> dict:
    """The log's replay-stable totals under dotted ``obs.*`` names.

    Only deterministic quantities are counted (never measured time), so
    this dict — sorted by name and embedded in ``otherData.metrics`` —
    is byte-identical across re-runs of the same workload.
    """

    def of(kind: str) -> list[dict]:
        return [ev for ev in events if ev["kind"] == kind]

    ends = [ev for ev in of("run_end") if "supersteps" in ev]
    metrics = {
        "obs.events": len(events),
        "obs.runs": len(of("run_begin")),
        "obs.supersteps": sum(ev["supersteps"] for ev in ends),
        "obs.bytes.total": sum(ev["bytes"] for ev in ends),
        "obs.messages.total": sum(ev["messages"] for ev in ends),
        "obs.spans.retry": len(of("retry")),
        "obs.spans.recovery": len(of("recovery")),
    }
    for ev in ends:
        for key, value in ev["faults"].items():
            name = f"obs.faults.{key}"
            metrics[name] = metrics.get(name, 0) + value
    queries, rejects = of("svc_query"), of("svc_reject")
    updates = of("svc_update")
    if queries or rejects or updates:
        metrics["obs.service.queries"] = len(queries)
        metrics["obs.service.cache_hits"] = sum(
            bool(ev["from_cache"]) for ev in queries
        )
        metrics["obs.service.rejected"] = len(rejects)
        metrics["obs.service.updates"] = len(updates)
    routes, hedges = of("fleet_route"), of("fleet_hedge")
    failovers, catchups = of("fleet_failover"), of("fleet_catchup")
    opens = [ev for ev in of("fleet_breaker") if ev["state"] == "open"]
    if routes or hedges or failovers or opens or catchups:
        metrics["obs.fleet.routes"] = len(routes)
        metrics["obs.fleet.stale_served"] = sum(
            bool(ev["stale"]) for ev in routes
        )
        metrics["obs.fleet.hedges"] = len(hedges)
        metrics["obs.fleet.failovers"] = len(failovers)
        metrics["obs.fleet.breaker_opens"] = len(opens)
        metrics["obs.fleet.catchups"] = len(catchups)
    return dict(sorted(metrics.items()))


def chrome_trace(tracer: Tracer) -> dict:
    """The tracer's log as a Chrome ``trace_event`` JSON object."""
    events = tracer.events
    emitter = _Emitter()
    _emit_service(
        emitter, [ev for ev in events if ev["kind"].startswith("svc_")]
    )
    _emit_fleet(
        emitter, [ev for ev in events if ev["kind"].startswith("fleet_")]
    )
    for run in build_timeline(events):
        _emit_run(emitter, run)
    return {
        "displayTimeUnit": "ms",
        "otherData": {"format": FORMAT, "metrics": trace_metrics(events)},
        "traceEvents": emitter.events,
    }


def dump_chrome_trace(tracer: Tracer) -> str:
    """Canonical byte-stable serialization of :func:`chrome_trace`."""
    return json.dumps(chrome_trace(tracer), indent=2, sort_keys=True) + "\n"


def write_chrome_trace(tracer: Tracer, path: str) -> int:
    """Write the canonical export to ``path``; returns the event count."""
    payload = dump_chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
    return len(tracer.events)
