"""Vertex-centric BSP engine — the Pregel / Giraph programming model.

"To use Pregel, one has to 'think like a vertex' and recast the entire
existing algorithms into a vertex-centric model" (Section 1). This
engine implements that model faithfully so the recast algorithms can be
compared against GRAPE's plugged-in sequential ones:

* computation is a sequence of supersteps;
* in each superstep every *active* vertex runs ``compute(vertex, msgs)``,
  may update its value, send messages along edges and vote to halt;
* a halted vertex is reactivated by an incoming message;
* the run ends when all vertices are halted and no messages are in
  flight.

Messages between vertices on the same worker are delivered locally (no
network bytes); cross-worker messages are batched per destination worker
per superstep, as real Pregel implementations do, while the per-vertex
message count is tracked separately (the units the demo reports, e.g.
"ships 40M messages").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence

from repro.graph.digraph import Edge
from repro.graph.fragment import FragmentedGraph
from repro.runtime.cluster import Cluster
from repro.runtime.costmodel import CostModel
from repro.runtime.metrics import RunMetrics

VertexId = Hashable

#: Superstep cap: a run stops here even if vertices are still active.
MAX_SUPERSTEPS = 100_000


class VertexContext:
    """Per-vertex API handed to ``compute``: value, messages, halting."""

    __slots__ = (
        "vertex",
        "superstep",
        "_worker",
        "_halted",
        "_out_edges",
        "num_vertices",
    )

    def __init__(
        self,
        vertex: VertexId,
        superstep: int,
        worker: "_Worker",
        out_edges: list[Edge],
        num_vertices: int,
    ) -> None:
        self.vertex = vertex
        self.superstep = superstep
        self._worker = worker
        self._halted = False
        self._out_edges = out_edges
        self.num_vertices = num_vertices

    @property
    def value(self) -> object:
        """This vertex's current value."""
        return self._worker.values[self.vertex]

    @value.setter
    def value(self, new: object) -> None:
        """This vertex's current value."""
        self._worker.values[self.vertex] = new

    @property
    def out_edges(self) -> list[Edge]:
        """This vertex's outgoing edges."""
        return self._out_edges

    def send(self, target: VertexId, message: object) -> None:
        """Send a message for delivery in the next superstep."""
        self._worker.outbound.append((target, message))

    def send_to_neighbors(self, message: object) -> None:
        """Send ``message`` along every outgoing edge."""
        for edge in self._out_edges:
            self.send(edge.dst, message)

    def vote_to_halt(self) -> None:
        """Halt this vertex until a message reactivates it."""
        self._halted = True


class VertexProgram(abc.ABC):
    """A vertex-centric algorithm (what Giraph users must write)."""

    name = "abstract"

    @abc.abstractmethod
    def initial_value(self, vertex: VertexId) -> object:
        """Value each vertex starts with."""

    @abc.abstractmethod
    def compute(
        self, ctx: VertexContext, messages: list[object]
    ) -> None:
        """One vertex's superstep. Superstep 0 has no messages."""

    #: Optional message combiner (e.g. min) applied per target vertex
    #: before shipping — None disables combining (Giraph's default).
    combiner: Callable[[object, object], object] | None = None


@dataclass
class PregelResult:
    """Final vertex values plus metering."""

    values: dict[VertexId, object]
    metrics: RunMetrics
    supersteps: int
    vertex_messages: int


@dataclass
class _Worker:
    """One worker's vertex state."""

    wid: int
    vertices: list[VertexId]
    out_edges: dict[VertexId, list[Edge]]
    values: dict[VertexId, object] = field(default_factory=dict)
    halted: dict[VertexId, bool] = field(default_factory=dict)
    inbox: dict[VertexId, list[object]] = field(default_factory=dict)
    outbound: list[tuple[VertexId, object]] = field(default_factory=list)


class PregelEngine:
    """Runs vertex programs over a fragmented graph on the simulated
    cluster, with Pregel's synchronous semantics."""

    def __init__(
        self,
        fragmented: FragmentedGraph,
        cost_model: CostModel | None = None,
    ) -> None:
        self.fragmented = fragmented
        self.cost_model = cost_model or CostModel()

    def run(self, program: VertexProgram) -> PregelResult:
        """Execute the program to termination; returns values + metrics."""
        cluster = Cluster(
            self.fragmented.num_fragments,
            self.cost_model,
            engine_name=f"pregel[{program.name}]",
        )
        n = cluster.num_workers
        num_vertices = self.fragmented.num_vertices
        workers = [self._make_worker(fid) for fid in range(n)]
        for worker in workers:
            for v in worker.vertices:
                worker.values[v] = program.initial_value(v)
                worker.halted[v] = False

        vertex_messages = 0
        superstep = 0
        while superstep < MAX_SUPERSTEPS:
            any_active = False
            with cluster.superstep("superstep") as step:
                # Deliver batches that arrived at the last barrier.
                for worker in workers:
                    for msg in cluster.receive(worker.wid):
                        for target, payload in msg.payload:
                            worker.inbox.setdefault(target, []).append(payload)

                for worker in workers:
                    sent = self._compute_worker(
                        program, worker, superstep, step, num_vertices
                    )
                    vertex_messages += sent
                    if sent or any(
                        not halted for halted in worker.halted.values()
                    ):
                        any_active = True
            superstep += 1
            if not any_active and not cluster.mpi.pending():
                break

        values: dict[VertexId, object] = {}
        for worker in workers:
            values.update(worker.values)
        return PregelResult(
            values=values,
            metrics=cluster.metrics,
            supersteps=superstep,
            vertex_messages=vertex_messages,
        )

    # ------------------------------------------------------------------
    def _make_worker(self, fid: int) -> _Worker:
        frag = self.fragmented.fragments[fid]
        vertices = list(frag.owned)
        out_edges = {v: frag.graph.out_edges(v) for v in vertices}
        return _Worker(wid=fid, vertices=vertices, out_edges=out_edges)

    def _compute_worker(
        self,
        program: VertexProgram,
        worker: _Worker,
        superstep: int,
        step,
        num_vertices: int,
    ) -> int:
        """Run all active vertices of one worker; returns messages sent."""
        inbox, worker.inbox = worker.inbox, {}
        with step.compute(worker.wid):
            for v in worker.vertices:
                messages = inbox.pop(v, None)
                if messages is None and (worker.halted[v] and superstep > 0):
                    continue
                ctx = VertexContext(
                    v, superstep, worker, worker.out_edges[v], num_vertices
                )
                program.compute(ctx, messages or [])
                worker.halted[v] = ctx._halted
            sent = len(worker.outbound)
            batches = self._route(program, worker)
        for dst, batch in batches.items():
            step.send(worker.wid, dst, batch)
        worker.outbound = []
        return sent

    def _route(
        self, program: VertexProgram, worker: _Worker
    ) -> dict[int, list[tuple[VertexId, object]]]:
        """Split the outbound queue into per-destination-worker batches.

        Local targets short-circuit into the worker's own inbox; the
        optional combiner collapses messages per target vertex first.
        """
        pending: dict[VertexId, list[object]] = {}
        for target, payload in worker.outbound:
            pending.setdefault(target, []).append(payload)
        if program.combiner is not None:
            for target, payloads in pending.items():
                combined = payloads[0]
                for p in payloads[1:]:
                    combined = program.combiner(combined, p)
                pending[target] = [combined]
        batches: dict[int, list[tuple[VertexId, object]]] = {}
        for target, payloads in pending.items():
            dst = self.fragmented.owner_of(target)
            if dst == worker.wid:
                worker.inbox.setdefault(target, []).extend(payloads)
            else:
                batch = batches.setdefault(dst, [])
                batch.extend((target, p) for p in payloads)
        return batches
