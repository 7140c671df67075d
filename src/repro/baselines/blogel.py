"""Block-centric BSP engine — the Blogel programming model.

Blogel ("think like a graph" / block-centric [Yan et al., PVLDB'14])
treats connected *blocks* as the unit of computation: a B-compute
function runs a sequential algorithm over a whole block per superstep
and exchanges per-vertex messages with other blocks. This sits between
vertex-centric systems (far fewer supersteps: information crosses a
block per step, not an edge) and GRAPE (blocks are still fractions of a
fragment, message exchange is per-vertex per-edge without GRAPE's
per-vertex update parameters and their aggregate, and there is no
bounded incremental step).

Blocks are computed at load time as the connected components of each
worker's owned subgraph — Blogel's partitioner does the same job with a
Voronoi heuristic; combining this engine with
:class:`~repro.partition.bfs.BFSPartitioner` mimics its quality.
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
from repro.utils.dsu import DisjointSet

VertexId = Hashable

#: Superstep cap: a run stops here even if vertices are still active.
MAX_SUPERSTEPS = 100_000


@dataclass
class Block:
    """A connected block of one worker's fragment."""

    bid: int
    worker: int
    graph: Graph  # induced subgraph over the block's vertices
    vertices: set[VertexId]


class BlockContext:
    """B-compute API: per-vertex values and cross-block sends."""

    __slots__ = ("block", "values", "_outbound")

    def __init__(self, block: Block, values: dict) -> None:
        self.block = block
        self.values = values  # global per-worker value dict (shared)
        self._outbound: list[tuple[VertexId, object]] = []

    def send(self, target: VertexId, message: object) -> None:
        """Send a per-vertex message to a vertex in another block."""
        self._outbound.append((target, message))


class BlockProgram(abc.ABC):
    """A block-centric algorithm (what Blogel users write)."""

    name = "abstract"

    @abc.abstractmethod
    def initial_value(self, vertex: VertexId) -> object:
        """Starting value for each vertex."""

    @abc.abstractmethod
    def block_compute(
        self,
        ctx: BlockContext,
        messages: dict[VertexId, list[object]],
        superstep: int,
    ) -> bool:
        """Run the block's sequential step; return True if still active."""


@dataclass
class BlogelResult:
    """Final vertex values plus metering."""
    values: dict[VertexId, object]
    metrics: RunMetrics
    supersteps: int
    num_blocks: int
    vertex_messages: int


@dataclass
class _BlogelWorker:
    wid: int
    blocks: list[Block]
    values: dict[VertexId, object] = field(default_factory=dict)
    inbox: dict[int, dict[VertexId, list[object]]] = field(
        default_factory=dict
    )  # block id -> vertex -> payloads


class BlogelEngine:
    """Runs block programs over a fragmented graph."""

    def __init__(
        self,
        fragmented: FragmentedGraph,
        cost_model: CostModel | None = None,
    ) -> None:
        self.fragmented = fragmented
        self.cost_model = cost_model or CostModel()
        self._blocks_of: dict[VertexId, tuple[int, int]] = {}
        self._workers = self._build_workers()

    @property
    def num_blocks(self) -> int:
        """Total number of blocks across all workers."""
        return sum(len(w.blocks) for w in self._workers)

    def run(self, program: BlockProgram) -> BlogelResult:
        """Execute the program to termination; returns values + metrics."""
        cluster = Cluster(
            self.fragmented.num_fragments,
            self.cost_model,
            engine_name=f"blogel[{program.name}]",
        )
        workers = self._workers
        for worker in workers:
            worker.values = {}
            worker.inbox = {}
            for block in worker.blocks:
                for v in block.vertices:
                    worker.values[v] = program.initial_value(v)

        vertex_messages = 0
        supersteps = 0
        # Every block is active in superstep 0; afterwards a block runs
        # only when it has messages or stayed active.
        active: set[tuple[int, int]] = {
            (w.wid, b.bid) for w in workers for b in w.blocks
        }
        while supersteps < MAX_SUPERSTEPS:
            with cluster.superstep("b-compute") as step:
                for worker in workers:
                    for msg in cluster.receive(worker.wid):
                        for target, payload in msg.payload:
                            wid, bid = self._blocks_of[target]
                            worker.inbox.setdefault(bid, {}).setdefault(
                                target, []
                            ).append(payload)
                            active.add((wid, bid))
                for worker in workers:
                    sent = self._compute_worker(
                        program, worker, active, supersteps, step
                    )
                    vertex_messages += sent
            supersteps += 1
            if not active and not cluster.mpi.pending():
                break

        values: dict[VertexId, object] = {}
        for worker in workers:
            values.update(worker.values)
        return BlogelResult(
            values=values,
            metrics=cluster.metrics,
            supersteps=supersteps,
            num_blocks=self.num_blocks,
            vertex_messages=vertex_messages,
        )

    # ------------------------------------------------------------------
    def _build_workers(self) -> list[_BlogelWorker]:
        workers = []
        for frag in self.fragmented.fragments:
            owned_graph = frag.graph.subgraph(frag.owned)
            dsu = DisjointSet(owned_graph.vertices())
            for edge in owned_graph.edges():
                dsu.union(edge.src, edge.dst)
            blocks = []
            for bid, (_, members) in enumerate(sorted(
                dsu.groups().items(), key=lambda kv: str(kv[0])
            )):
                block = Block(
                    bid=bid,
                    worker=frag.fid,
                    graph=frag.graph.subgraph(
                        set(members)
                        | {
                            u
                            for v in members
                            for u in frag.graph.out_neighbors(v)
                        }
                    ),
                    vertices=set(members),
                )
                blocks.append(block)
                for v in members:
                    self._blocks_of[v] = (frag.fid, bid)
            workers.append(_BlogelWorker(wid=frag.fid, blocks=blocks))
        return workers

    def _compute_worker(
        self,
        program: BlockProgram,
        worker: _BlogelWorker,
        active: set[tuple[int, int]],
        superstep: int,
        step,
    ) -> int:
        inbox, worker.inbox = worker.inbox, {}
        batches: dict[int, list[tuple[VertexId, object]]] = {}
        sent = 0
        with step.compute(worker.wid):
            for block in worker.blocks:
                key = (worker.wid, block.bid)
                messages = inbox.get(block.bid, {})
                if key not in active and not messages:
                    continue
                active.discard(key)
                ctx = BlockContext(block, worker.values)
                still_active = program.block_compute(ctx, messages, superstep)
                if still_active:
                    active.add(key)
                sent += len(ctx._outbound)
                for target, payload in ctx._outbound:
                    dst_wid, dst_bid = self._blocks_of[target]
                    if dst_wid == worker.wid:
                        worker.inbox.setdefault(dst_bid, {}).setdefault(
                            target, []
                        ).append(payload)
                        active.add((dst_wid, dst_bid))
                    else:
                        batches.setdefault(dst_wid, []).append(
                            (target, payload)
                        )
        for dst, batch in batches.items():
            step.send(worker.wid, dst, batch)
        return sent
