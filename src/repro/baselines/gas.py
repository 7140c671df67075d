"""Gather-Apply-Scatter engine — the (synchronous) GraphLab model.

GraphLab programs are also vertex-centric, but *pull*-based: an active
vertex **gathers** over its in-edges, **applies** the accumulated value,
and **scatters** along out-edges to activate neighbors. Distributed
GraphLab keeps replicas of cut vertices and synchronizes master ->
mirror after apply; that replica traffic — not per-edge messages — is
its communication cost, and this engine reproduces it:

* each worker owns the vertices its fragment owns, and stores *mirror
  values* for every remote in-neighbor of an owned vertex;
* after the apply phase, owners push changed values to the workers
  subscribing to them (batched per destination);
* scatter sends activation notices to the owners of out-neighbors
  (batched; empty payloads — activation is control traffic).

The engine is synchronous (GraphLab's sync engine), which is the mode
comparable with BSP systems in the paper's Table 1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Hashable

from repro.graph.digraph import Graph
from repro.graph.fragment import FragmentedGraph
from repro.runtime.cluster import Cluster
from repro.runtime.costmodel import CostModel
from repro.runtime.metrics import RunMetrics

VertexId = Hashable

#: Superstep cap: a run stops here even if vertices are still active.
MAX_SUPERSTEPS = 100_000


class GASProgram(abc.ABC):
    """A gather-apply-scatter algorithm (what GraphLab users write)."""

    name = "abstract"

    @abc.abstractmethod
    def initial_value(self, vertex: VertexId) -> object:
        """Starting vertex value."""

    @abc.abstractmethod
    def gather(
        self, vertex: VertexId, src_value: object, edge_weight: float
    ) -> object:
        """Contribution of one in-edge (source value is a replica read)."""

    @abc.abstractmethod
    def merge(self, a: object, b: object) -> object:
        """Combine two gather contributions."""

    @abc.abstractmethod
    def apply(
        self, vertex: VertexId, value: object, accumulated: object | None
    ) -> object:
        """New vertex value from the gathered accumulator."""

    def should_scatter(self, old: object, new: object) -> bool:
        """Whether the value change warrants activating out-neighbors."""
        return old != new

    def converged(self, old: object, new: object) -> bool:
        """Whether this vertex may deactivate after this round."""
        return old == new


@dataclass
class GASResult:
    """Final vertex values plus metering."""
    values: dict[VertexId, object]
    metrics: RunMetrics
    supersteps: int
    replica_syncs: int


@dataclass
class _GASWorker:
    wid: int
    owned: list[VertexId]
    #: owned vertex -> [(in-neighbor, weight)]
    in_adj: dict[VertexId, list[tuple[VertexId, float]]]
    #: owned vertex -> out-neighbor ids (for scatter routing)
    out_adj: dict[VertexId, list[VertexId]]
    #: owned vertex -> worker ids holding a replica of it
    subscribers: dict[VertexId, list[int]]
    values: dict[VertexId, object] = field(default_factory=dict)
    #: replicas of remote in-neighbors
    replicas: dict[VertexId, object] = field(default_factory=dict)
    active: set[VertexId] = field(default_factory=set)


class GASEngine:
    """Synchronous GAS over an edge-cut assignment with replica sync."""

    def __init__(
        self,
        graph: Graph,
        fragmented: FragmentedGraph,
        cost_model: CostModel | None = None,
    ) -> None:
        self.graph = graph
        self.fragmented = fragmented
        self.cost_model = cost_model or CostModel()

    def run(self, program: GASProgram) -> GASResult:
        """Execute the program to termination; returns values + metrics."""
        cluster = Cluster(
            self.fragmented.num_fragments,
            self.cost_model,
            engine_name=f"gas[{program.name}]",
        )
        workers = self._build_workers()
        for worker in workers:
            for v in worker.owned:
                worker.values[v] = program.initial_value(v)
                worker.active.add(v)
            for v in worker.replicas:
                worker.replicas[v] = program.initial_value(v)

        replica_syncs = 0
        supersteps = 0
        while supersteps < MAX_SUPERSTEPS:
            any_active = False
            with cluster.superstep("gas") as step:
                # Deliver replica updates and activations from last round.
                for worker in workers:
                    for msg in cluster.receive(worker.wid):
                        kind, items = msg.payload
                        if kind == "sync":
                            for v, value in items:
                                worker.replicas[v] = value
                        else:  # activation notices
                            for v in items:
                                worker.active.add(v)

                for worker in workers:
                    syncs = self._round(program, worker, step)
                    replica_syncs += syncs
                    if worker.active:
                        any_active = True
            supersteps += 1
            if not any_active and not cluster.mpi.pending():
                break

        values: dict[VertexId, object] = {}
        for worker in workers:
            values.update(worker.values)
        return GASResult(
            values=values,
            metrics=cluster.metrics,
            supersteps=supersteps,
            replica_syncs=replica_syncs,
        )

    # ------------------------------------------------------------------
    def _build_workers(self) -> list[_GASWorker]:
        owner = self.fragmented.owner_of
        n = self.fragmented.num_fragments
        in_adj: list[dict[VertexId, list[tuple[VertexId, float]]]] = [
            {} for _ in range(n)
        ]
        out_adj: list[dict[VertexId, list[VertexId]]] = [{} for _ in range(n)]
        subscribers: list[dict[VertexId, set[int]]] = [{} for _ in range(n)]
        replicas: list[set[VertexId]] = [set() for _ in range(n)]
        owned: list[list[VertexId]] = [[] for _ in range(n)]
        for v in self.graph.vertices():
            fid = owner(v)
            owned[fid].append(v)
            in_adj[fid][v] = []
            out_adj[fid][v] = []
        for edge in self.graph.edges():
            src_fid, dst_fid = owner(edge.src), owner(edge.dst)
            in_adj[dst_fid][edge.dst].append((edge.src, edge.weight))
            out_adj[src_fid][edge.src].append(edge.dst)
            if src_fid != dst_fid:
                # dst's worker reads src's value: it holds a replica.
                replicas[dst_fid].add(edge.src)
                subscribers[src_fid].setdefault(edge.src, set()).add(dst_fid)
        return [
            _GASWorker(
                wid=fid,
                owned=owned[fid],
                in_adj=in_adj[fid],
                out_adj=out_adj[fid],
                subscribers={
                    v: sorted(subs) for v, subs in subscribers[fid].items()
                },
                replicas=dict.fromkeys(replicas[fid]),
            )
            for fid in range(n)
        ]

    def _round(self, program: GASProgram, worker: _GASWorker, step) -> int:
        """Gather/apply/scatter for one worker; returns replica updates."""
        sync_batches: dict[int, list[tuple[VertexId, object]]] = {}
        activation_batches: dict[int, set[VertexId]] = {}
        syncs = 0
        with step.compute(worker.wid):
            active, worker.active = worker.active, set()
            for v in active:
                acc: object | None = None
                for src, weight in worker.in_adj[v]:
                    if src in worker.values:
                        src_value = worker.values[src]
                    else:
                        src_value = worker.replicas.get(src)
                    contrib = program.gather(v, src_value, weight)
                    acc = (
                        contrib
                        if acc is None
                        else program.merge(acc, contrib)
                    )
                old = worker.values[v]
                new = program.apply(v, old, acc)
                worker.values[v] = new
                if program.should_scatter(old, new):
                    # Replica sync to subscribers.
                    for sub in worker.subscribers.get(v, ()):
                        sync_batches.setdefault(sub, []).append((v, new))
                        syncs += 1
                    # Activate out-neighbors (local or remote).
                    for u in worker.out_adj[v]:
                        dst = self.fragmented.owner_of(u)
                        if dst == worker.wid:
                            worker.active.add(u)
                        else:
                            activation_batches.setdefault(dst, set()).add(u)
                if not program.converged(old, new):
                    worker.active.add(v)
        for dst, batch in sync_batches.items():
            step.send(worker.wid, dst, ("sync", batch))
        for dst, targets in activation_batches.items():
            step.send(worker.wid, dst, ("activate", sorted(targets)))
        return syncs
