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
and ``reweights`` — at least one must be non-empty.

``replay_trace`` drives a :class:`~repro.service.service.GrapeService`
through the ops and returns the service plus its final report. Shed
requests (queue overload) are recorded in the report, not raised — a
trace is allowed to probe the backpressure path on purpose.
"""

from __future__ import annotations

import json

from repro.errors import GrapeError, ServiceOverloadedError
from repro.graph.generators import graph_from_spec
from repro.service.metrics import ServiceReport
from repro.service.scheduler import DEFAULT_PRIORITY
from repro.service.service import GrapeService

_KNOWN_OPS = {"query", "drain", "update"}


def load_trace(path: str) -> dict:
    """Read and structurally validate a workload trace file."""
    try:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GrapeError(f"cannot read workload trace {path}: {exc}")
    if not isinstance(trace, dict) or "ops" not in trace:
        raise GrapeError(
            f"workload trace {path} must be a JSON object with an 'ops' list"
        )
    for idx, op in enumerate(trace["ops"]):
        kind = op.get("op")
        if kind not in _KNOWN_OPS:
            raise GrapeError(
                f"trace op #{idx} has unknown kind {kind!r}; "
                f"expected one of {sorted(_KNOWN_OPS)}"
            )
        if kind == "query" and "class" not in op:
            raise GrapeError(f"trace query op #{idx} needs a 'class'")
        if kind == "update" and not (
            op.get("edges") or op.get("deletes") or op.get("reweights")
        ):
            raise GrapeError(
                f"trace update op #{idx} needs at least one of "
                "'edges', 'deletes' or 'reweights'"
            )
    return trace


def build_service(
    trace: dict,
    graph_spec: str | None = None,
    tracer=None,
    backend: str = "simulated",
    store: str | None = None,
) -> GrapeService:
    """Construct the service a trace describes (graph, partition, knobs).

    ``store`` overrides the fragment storage backend; the trace's own
    optional ``"store"`` key applies otherwise.
    """
    from repro.engineapi.session import Session

    spec = graph_spec or trace.get("graph")
    if not spec:
        raise GrapeError(
            "workload trace names no graph; add a 'graph' spec or pass one"
        )
    store = store if store is not None else trace.get("store")
    graph = graph_from_spec(spec, store=store)
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
        cache_ttl=knobs.get("cache_ttl"),
        rewarm_hottest=int(knobs.get("rewarm_hottest", 0)),
    )


def replay_trace(
    trace: dict,
    service: GrapeService | None = None,
    graph_spec: str | None = None,
    max_queries: int | None = None,
    verify: bool | None = None,
    tracer=None,
    backend: str = "simulated",
    store: str | None = None,
) -> tuple[GrapeService, ServiceReport]:
    """Replay a trace and return ``(service, final report)``.

    ``max_queries`` stops submitting after that many query ops (the
    smoke-test knob); remaining update ops are skipped too so the
    truncated replay stays cheap. ``verify`` overrides every update
    op's own ``verify`` flag when not None. ``tracer`` (ignored when a
    pre-built ``service`` is passed) records the replay for export.
    A query op's optional ``"at"`` advances the service clock before
    submitting, which gives requests distinct arrival times for
    ``drain`` to honor.
    ``backend`` (ignored when a pre-built ``service`` is passed) picks
    the execution backend every dispatched engine run uses; ``store``
    likewise selects the fragment storage backend.
    """
    if service is None:
        service = build_service(
            trace, graph_spec, tracer=tracer, backend=backend, store=store
        )
    for standing in trace.get("standing", []):
        service.register_standing(
            standing["name"],
            standing["class"],
            standing.get("params"),
        )
    queries_sent = 0
    for op in trace["ops"]:
        kind = op["op"]
        if kind == "query":
            if "at" in op:
                service.advance(float(op["at"]))
            for _ in range(int(op.get("repeat", 1))):
                if max_queries is not None and queries_sent >= max_queries:
                    break
                queries_sent += 1
                try:
                    service.submit(
                        op["class"],
                        op.get("params"),
                        client=op.get("client", "trace"),
                        priority=int(op.get("priority", DEFAULT_PRIORITY)),
                    )
                except ServiceOverloadedError:
                    pass  # shed; counted in the report
        elif kind == "drain":
            service.drain()
        elif kind == "update":
            if max_queries is not None and queries_sent >= max_queries:
                continue
            service.apply_updates(
                op.get("edges", ()),
                verify=op.get("verify", True) if verify is None else verify,
                deletes=op.get("deletes", ()),
                reweights=op.get("reweights", ()),
            )
    service.drain()
    return service, service.report()
