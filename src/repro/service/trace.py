"""Workload traces: replayable JSON mixes of queries and updates.

A trace is one JSON object::

    {
      "graph": "road:10x10",            // generator spec (graph_from_spec)
      "workers": 4,
      "partition": "hash",
      "service": {"max_pending": 32, "concurrency": 2},
      "standing": [
        {"name": "hub-sssp", "class": "sssp", "params": {"source": 0}}
      ],
      "ops": [
        {"op": "query", "class": "sssp", "params": {"source": 0},
         "client": "c1", "priority": 2, "repeat": 3, "at": 0.25},
        {"op": "drain"},
        {"op": "update", "edges": [[0, 57, 0.5]],
         "deletes": [[3, 4]], "reweights": [[5, 6, 2.5]],
         "verify": true}
      ]
    }

An update op carries any mix of ``edges`` (insertions), ``deletes``
and ``reweights`` — at least one must be non-empty. A key not shown
here (plus a top-level ``"description"``) is refused, so a misspelt
knob or op field cannot silently fall back to its default.

``replay_trace`` drives a :class:`~repro.service.service.GrapeService`
(or a :class:`~repro.service.fleet.FleetRouter` of N copies of it)
through the ops and returns it plus its final report. Shed
requests (queue overload) are recorded in the report, not raised — a
trace is allowed to probe the backpressure path on purpose.
"""

from __future__ import annotations

import json

from repro.core.delta import GraphDelta
from repro.errors import (
    INT,
    LIST,
    NUMBER,
    OBJECT,
    POSITIVE_INT,
    STR,
    GrapeError,
    ProgramError,
    ServiceError,
    ServiceOverloadedError,
    check_fields,
)
from repro.graph.generators import graph_from_spec
from repro.service.scheduler import DEFAULT_PRIORITY
from repro.service.service import GrapeService

#: The keys each level of a trace may carry.
_TRACE_KEYS = {
    "description", "graph", "workers", "partition", "store", "service",
    "standing", "ops",
}
_SERVICE_KEYS = {
    "max_pending", "concurrency", "cache_capacity", "rewarm_hottest",
}
_STANDING_KEYS = {"name", "class", "params"}
_OP_KEYS = {
    "query": {"op", "class", "params", "client", "priority", "repeat", "at"},
    "drain": {"op"},
    "update": {"op", "edges", "deletes", "reweights", "verify"},
}


def _check_keys(where: str, entry: dict, allowed: set) -> None:
    """Refuse the first key of ``entry`` outside ``allowed``."""
    for key in entry:
        if key not in allowed:
            raise GrapeError(
                f"{where}: unknown key {key!r}; allowed: "
                + ", ".join(sorted(allowed))
            )


def update_delta(op: dict) -> GraphDelta:
    """One update op's rows, parsed as ``grape run --updates`` parses
    its file (raises ProgramError on a bad row)."""
    rows = {"insert": "edges", "delete": "deletes", "reweight": "reweights"}
    return GraphDelta.from_dict({k: op.get(n, []) for k, n in rows.items()})


def load_trace(path: str) -> dict:
    """Read and structurally validate a workload trace file.

    Every shape :func:`replay_trace` or the fleet replay would trip
    over is refused here with a :class:`GrapeError` naming the op.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GrapeError(f"cannot read workload trace {path}: {exc}")
    if not isinstance(trace, dict) or not isinstance(trace.get("ops"), list):
        raise GrapeError(
            f"workload trace {path} must be a JSON object with an 'ops' list"
        )
    where = f"workload trace {path}"
    _check_keys(where, trace, _TRACE_KEYS)
    check_fields(where, trace, STR, "graph", "partition", "store")
    check_fields(where, trace, INT, "workers")
    check_fields(where, trace, OBJECT, "service")
    check_fields(where, trace, LIST, "standing")
    knobs, where = trace.get("service", {}), f"{where} 'service'"
    _check_keys(where, knobs, _SERVICE_KEYS)
    check_fields(
        where, knobs, POSITIVE_INT, "max_pending", "concurrency",
        "cache_capacity",
    )
    check_fields(where, knobs, INT, "rewarm_hottest")
    for idx, entry in enumerate(trace.get("standing", [])):
        where = f"trace standing entry #{idx}"
        if not isinstance(entry, dict) or not {"name", "class"} <= set(entry):
            raise GrapeError(
                f"{where} must be an object with a 'name' and a 'class', "
                f"got {entry!r}"
            )
        _check_keys(where, entry, _STANDING_KEYS)
        check_fields(where, entry, STR, "name", "class")
        check_fields(where, entry, OBJECT, "params")
    for idx, op in enumerate(trace["ops"]):
        if not isinstance(op, dict):
            raise GrapeError(f"trace op #{idx} must be an object, got {op!r}")
        kind = op.get("op")
        if kind not in _OP_KEYS:
            raise GrapeError(
                f"trace op #{idx} has unknown kind {kind!r}; "
                f"expected one of {sorted(_OP_KEYS)}"
            )
        where = f"trace {kind} op #{idx}"
        _check_keys(where, op, _OP_KEYS[kind])
        if kind == "query":
            if "class" not in op:
                raise GrapeError(f"{where} needs a 'class'")
            check_fields(where, op, STR, "class")
            check_fields(where, op, OBJECT, "params")
            check_fields(where, op, INT, "repeat", "priority")
            check_fields(where, op, NUMBER, "at")
        if kind == "update":
            if not (
                op.get("edges") or op.get("deletes") or op.get("reweights")
            ):
                raise GrapeError(
                    f"{where} needs at least one of "
                    "'edges', 'deletes' or 'reweights'"
                )
            try:
                update_delta(op)
            except ProgramError as exc:
                raise GrapeError(f"{where}: {exc}")
    return trace


def build_service(
    trace: dict,
    tracer=None,
    backend: str = "simulated",
    graph=None,
    initial_version: int = 1,
) -> GrapeService:
    """Construct the service a trace describes (graph, partition, store,
    knobs) — one fleet replica is exactly this service.

    ``graph`` serves a given graph (a restored checkpoint) at
    ``initial_version`` instead of building the trace's graph fresh.
    """
    from repro.engineapi.session import Session

    store = trace.get("store")
    if graph is None:
        if not trace.get("graph"):
            raise GrapeError(
                "workload trace names no graph; add a 'graph' spec or "
                "pass one"
            )
        graph = graph_from_spec(trace["graph"], store=store)
    session = Session(
        graph,
        num_workers=int(trace.get("workers", 4)),
        partition=trace.get("partition", "hash"),
        tracer=tracer,
        backend=backend,
        store=store,
    )
    knobs = trace.get("service", {})
    return GrapeService(
        session,
        max_pending=int(knobs.get("max_pending", 64)),
        concurrency=int(knobs.get("concurrency", 2)),
        cache_capacity=int(knobs.get("cache_capacity", 256)),
        rewarm_hottest=int(knobs.get("rewarm_hottest", 0)),
        initial_version=initial_version,
    )


def replay_trace(
    trace: dict,
    graph_spec: str | None = None,
    max_queries: int | None = None,
    verify: bool | None = None,
    tracer=None,
    backend: str = "simulated",
    store: str | None = None,
    replicas: int = 1,
    faults=None,
    deadline: float | None = None,
):
    """Replay a trace against one service (``replicas=1``) or a
    :class:`~repro.service.fleet.FleetRouter` of ``replicas`` copies of
    it; returns ``(service or fleet, final report)``.

    ``graph_spec`` and ``store`` override the trace's ``"graph"`` and
    ``"store"``. ``max_queries`` stops submitting after that many query
    ops (the smoke-test knob); remaining update ops are skipped too so
    the truncated replay stays cheap. ``verify`` overrides every update
    op's own ``verify`` flag when not None. ``tracer`` records the
    replay for export; ``backend`` picks the execution backend of a
    single service.

    One service queues a query op (shed requests are counted, not
    raised), honors its optional ``"at"`` arrival time and drains on
    ``drain``. A fleet serves each query at once through its router,
    with the replica-level ``faults`` plan and per-query ``deadline``;
    ``at`` and ``drain`` are no-ops there.
    """
    overrides = {"graph": graph_spec, "store": store}
    trace = {**trace, **{k: v for k, v in overrides.items() if v}}
    fleet = replicas != 1
    if fleet:
        from repro.service.fleet import FleetRouter

        if backend != "simulated":
            raise ServiceError(
                "a fleet serves on the simulated backend; backend "
                f"{backend!r} is single-service only"
            )
        target = FleetRouter(
            trace, replicas, faults=faults, deadline=deadline, tracer=tracer
        )
    elif faults is not None or deadline is not None:
        raise ServiceError(
            "a fault plan or a deadline needs a fleet (replicas > 1)"
        )
    else:
        target = build_service(trace, tracer=tracer, backend=backend)
    for standing in trace.get("standing", []):
        target.register_standing(
            standing["name"],
            standing["class"],
            standing.get("params"),
        )
    serve = target.query if fleet else target.submit
    queries_sent = 0
    for op in trace["ops"]:
        kind = op["op"]
        if kind == "query":
            if "at" in op and not fleet:
                target.advance(float(op["at"]))
            for _ in range(int(op.get("repeat", 1))):
                if max_queries is not None and queries_sent >= max_queries:
                    break
                queries_sent += 1
                try:
                    serve(
                        op["class"],
                        op.get("params"),
                        client=op.get("client", "trace"),
                        priority=int(op.get("priority", DEFAULT_PRIORITY)),
                    )
                except ServiceOverloadedError:
                    pass  # shed by a service queue; counted in the report
        elif kind == "drain" and not fleet:
            target.drain()
        elif kind == "update":
            if max_queries is not None and queries_sent >= max_queries:
                continue
            target.apply_updates(
                update_delta(op),
                verify=op.get("verify", True) if verify is None else verify,
            )
    if not fleet:
        target.drain()
    return target, target.report()
