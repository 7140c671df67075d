"""Workload specs and the seed -> schedule derivation.

A schedule is everything one replay executes — the cold query, the warm
queries and the ΔG batches — as plain data derived only from the seed.
The *shape* of a workload (its graph, how many operations, which strata
the sources come from, the popularity ranks and class mix of the served
traffic, how large an area each batch affects) is a constant of the
workload; the seed picks which vertex stands in each stratum and which
edges the batches touch. That keeps the properties the system's cost
depends on the same from seed to seed, so two seeds measure the same
workload on different inputs and their numbers can be compared.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field

from repro.algorithms.sequential import single_source
from repro.graph.digraph import Graph
from repro.graph.generators import power_law, road_network


@dataclass(frozen=True)
class Spec:
    """One workload: its deployment and the shape of its schedule."""

    name: str
    why: str
    fragments: int
    partition: str
    #: Sizes of the full run, and the keys ``--smoke`` overrides.
    shape: dict
    smoke: dict
    backend: str = "simulated"
    store: str = "dict"
    mode: str = "strict"
    #: Attach a ``repro.obs.Tracer`` (the tracer-overhead probe only).
    obs_tracer: bool = False
    #: Query class of the warm queries ("mixed" = the served class mix).
    query_class: str = "sssp"
    #: Class of the cold query whose kept state absorbs the ΔG batches.
    kept_class: str = "sssp"
    #: GrapeService keyword arguments; None for the engine workloads.
    service: dict | None = None
    #: Generator seed of the graph: the workload's, not the run's. Across
    #: generator seeds comm_mb alone spreads 6-7 % and the p90 query's
    #: traffic 14 % (48 fixed sources on a 40x40 grid), which no schedule
    #: length averages away; the run's seed draws sources and ΔG edges.
    graph_seed: int = 7

    def sizes(self, smoke: bool) -> dict:
        return {**self.shape, **self.smoke} if smoke else dict(self.shape)


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="road-sssp-hash",
            why=(
                "cut-heavy partition: many sparse-frontier rounds, so "
                "algorithms IncEval and core.engine routing do the work"
            ),
            fragments=4,
            partition="hash",
            shape={"grid": (36, 36), "tiles": (6, 6), "batches": 36},
            smoke={"grid": (10, 10), "tiles": (2, 2), "batches": 2},
        ),
        Spec(
            name="road-sssp-csr-proc",
            why=(
                "the deployment path: partition, CSR build, pickle/ship "
                "and pool start make setup_s; backend execute and IPC "
                "make the queries"
            ),
            fragments=2,
            partition="multilevel",
            backend="process",
            store="csr",
            shape={"grid": (80, 80), "tiles": (4, 3), "batches": 16},
            smoke={"grid": (12, 12), "tiles": (2, 2), "batches": 2},
        ),
        Spec(
            name="power-pagerank",
            why=(
                "dense all-active rounds with dict-valued parameters: "
                "engine self time and backend-side aggregation outweigh "
                "the program; updates are monotone inserts, no repair"
            ),
            fragments=4,
            partition="hash",
            query_class="pagerank",
            kept_class="cc",
            shape={
                "n": 400,
                "dampings": (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85),
                "batches": 12,
                "batch_edges": 128,
            },
            smoke={
                "n": 60,
                "dampings": (0.5, 0.8),
                "batches": 2,
                "batch_edges": 8,
            },
        ),
        Spec(
            name="serve-mixed",
            why=(
                "reads beside writes: a cache or admission gain that "
                "costs invalidation, re-warm or standing repair shows "
                "as update_ms or query_p90_ms moving the other way"
            ),
            fragments=4,
            partition="bfs",
            query_class="mixed",
            service={
                "max_pending": 16,
                "concurrency": 2,
                "cache_capacity": 64,
                "rewarm_hottest": 2,
            },
            shape={
                "grid": (40, 40),
                "tiles": (6, 4),
                "queries": 200,
                "update_every": 20,
            },
            smoke={
                "grid": (10, 10),
                "tiles": (3, 2),
                "queries": 20,
                "update_every": 10,
            },
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One operation: a query, or a ΔG batch (``kind == "update"``)."""

    kind: str
    #: Query class; empty for an update.
    cls: str = ""
    #: Query parameters, or the batch as
    #: ``{"insert": [[u, v, w]], "delete": [[u, v]], "reweight": [[u, v, w]]}``.
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Schedule:
    """What one replay runs, in order."""

    #: serve-mixed: (name, class, params) registered before the cold query.
    standing: tuple
    cold: Op
    ops: tuple

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_graph(spec: Spec, smoke: bool = False) -> Graph:
    sizes = spec.sizes(smoke)
    if "grid" in sizes:
        rows, cols = sizes["grid"]
        return road_network(rows, cols, seed=spec.graph_seed, store=spec.store)
    return power_law(sizes["n"], seed=spec.graph_seed, store=spec.store)


def build_schedule(
    spec: Spec, graph: Graph, seed: int, smoke: bool = False
) -> Schedule:
    sizes = spec.sizes(smoke)
    rng = random.Random(f"{spec.name}/{seed}")
    if spec.service is not None:
        return _serve_schedule(sizes, graph, rng)
    if spec.query_class == "pagerank":
        return _pagerank_schedule(sizes, graph, rng)
    return _road_schedule(sizes, graph, rng)


# ----------------------------------------------------------------------
# Seed-drawn pieces
# ----------------------------------------------------------------------
INF = float("inf")

#: A seed moves each source this many cells around its stratum's centre.
JITTER = 2


def _strata_vertices(grid, tiles, rng) -> list[int]:
    """One vertex near the centre of each tile of an ``a x b`` tiling.

    Corner, edge and centre sources are in every seed's schedule, each
    within ``JITTER`` cells of the same place, so the cost profile across
    the schedule is the workload's and not the draw's: SSSP traffic from
    sources one stratum apart differs by tens of percent, from sources
    two cells apart by a few.
    """
    rows, cols = grid
    a, b = tiles
    picked = []
    for i in range(a):
        for j in range(b):
            r = (2 * i + 1) * rows // (2 * a) + rng.randint(-JITTER, JITTER)
            c = (2 * j + 1) * cols // (2 * b) + rng.randint(-JITTER, JITTER)
            r = min(max(r, 0), rows - 1)
            c = min(max(c, 0), cols - 1)
            picked.append(r * cols + c)
    return picked


def mutate(graph: Graph, batch: dict) -> None:
    """Apply one ΔG batch to a master graph."""
    for u, v, w in batch["insert"]:
        graph.add_edge(u, v, w)
    for u, v in batch["delete"]:
        graph.remove_edge(u, v)
    for u, v, w in batch["reweight"]:
        graph.add_edge(u, v, w, graph.edge_label(u, v))


class _RoadEdges:
    """Hands out ΔG edges by their effect on the kept SSSP answer.

    What a batch costs is set by the area it affects (IncEval is bounded
    in |AFF|, not |G|), so edges are drawn by class, each pair once:

    * ``tree(k)`` — an edge of the kept source's shortest-path tree whose
      subtree holds about ``k`` vertices: deleting or lengthening it
      invalidates that subtree, shortening it improves at least that;
    * ``slack()`` — an edge no shortest path uses, and would not use at
      0.6 of its weight: touching it must invalidate nothing;
    * ``fresh()`` — a two-cell hop the generator never builds.

    The tree is re-derived on a private copy of the graph after every
    batch: a shortened edge attracts its neighbours' paths, and fifteen
    batches on a five-vertex subtree can hold 144.
    """

    def __init__(self, grid, graph: Graph, source, rng) -> None:
        self.rows, self.cols = grid
        self.graph = graph.with_store("dict")
        self.source = source
        self.rng = rng
        self._used: set = set()

    def _survey(self) -> None:
        """Shortest-path tree edges with subtree sizes, and slack edges."""
        dist = single_source(self.graph, self.source)
        parent: dict = {}
        self._slack = []
        for edge in self.graph.edges():
            reach = dist[edge.src] + edge.weight
            if reach == INF:
                continue  # a hole in the grid cut this edge off
            if reach == dist[edge.dst] and edge.dst != self.source:
                parent.setdefault(edge.dst, edge)
            elif dist[edge.src] + 0.6 * edge.weight > dist[edge.dst]:
                self._slack.append(edge)
        size = dict.fromkeys(dist, 1)
        for v in sorted(parent, key=dist.get, reverse=True):
            size[parent[v].src] += size[v]
        self._tree = sorted(
            (size[v], edge.src, v, edge.weight) for v, edge in parent.items()
        )
        self.rng.shuffle(self._slack)

    def _take(self, u, v) -> bool:
        pair = (min(u, v), max(u, v))
        if pair in self._used:
            return False
        self._used.add(pair)
        return True

    def tree(self, k: int) -> tuple[int, int, float]:
        near = [e for e in self._tree if 0.75 * k <= e[0] <= 1.25 * k]
        self.rng.shuffle(near)
        for _, u, v, w in near:
            if self._take(u, v):
                return u, v, w
        for _, u, v, w in sorted(self._tree, key=lambda e: abs(e[0] - k)):
            if self._take(u, v):
                return u, v, w
        raise ValueError("the schedule needs more tree edges than the graph has")

    def slack(self) -> tuple[int, int, float]:
        for edge in self._slack:
            if self._take(edge.src, edge.dst):
                return edge.src, edge.dst, edge.weight
        raise ValueError("the schedule needs more slack edges than the graph has")

    def fresh(self) -> tuple[int, int, float]:
        while True:
            r, c = self.rng.randrange(self.rows), self.rng.randrange(self.cols)
            if c + 2 < self.cols:
                u, v = r * self.cols + c, r * self.cols + c + 2
            elif r + 2 < self.rows:
                u, v = r * self.cols + c, (r + 2) * self.cols + c
            else:
                continue
            if not self.graph.has_edge(u, v) and self._take(u, v):
                return u, v, round(4.0 + self.rng.random() * 8.0, 3)

    def batch(self, longer, shorter, delete: int | None) -> Op:
        """Reweights x1.5 and x0.6 (subtree sizes; 0 = a slack edge), one
        insert, and a delete of a tree edge with a ``delete``-vertex subtree."""
        self._survey()

        def pick(k):
            return self.tree(k) if k else self.slack()

        reweight = []
        for factor, sizes in ((1.5, longer), (0.6, shorter)):
            for k in sizes:
                u, v, w = pick(k)
                reweight.append([u, v, round(w * factor, 6)])
        args = {
            "insert": [list(self.fresh())],
            "delete": [list(self.tree(delete)[:2])] if delete else [],
            "reweight": reweight,
        }
        mutate(self.graph, args)
        return Op("update", args=args)


def _centre(grid) -> int:
    rows, cols = grid
    return (rows // 2) * cols + cols // 2


def _road_schedule(sizes, graph, rng) -> Schedule:
    grid = sizes["grid"]
    sources = _strata_vertices(grid, sizes["tiles"], rng)
    edges = _RoadEdges(grid, graph, _centre(grid), rng)
    ops = [Op("query", "sssp", {"source": s}) for s in sources]
    ops += [
        edges.batch(longer=(4, 8, 0), shorter=(4, 0), delete=6)
        for _ in range(sizes["batches"])
    ]
    cold = Op("query", "sssp", {"source": _centre(grid)})
    return Schedule((), cold, tuple(ops))


def _pagerank_schedule(sizes, graph, rng) -> Schedule:
    n = sizes["n"]
    ops = [
        Op("query", "pagerank", {"damping": d, "tolerance": 1e-6})
        for d in sizes["dampings"]
    ]
    used: set = set()
    for _ in range(sizes["batches"]):
        insert = []
        while len(insert) < sizes["batch_edges"]:
            u, v = rng.randrange(n), rng.randrange(n)
            pair = (min(u, v), max(u, v))
            if u == v or pair in used or graph.has_edge(u, v):
                continue
            used.add(pair)
            insert.append([u, v, round(1.0 + rng.random() * 4.0, 3)])
        ops.append(
            Op("update", args={"insert": insert, "delete": [], "reweight": []})
        )
    return Schedule((), Op("query", "cc"), tuple(ops))


def _serve_schedule(sizes, graph, rng) -> Schedule:
    grid = sizes["grid"]
    rows, cols = grid
    hot = _strata_vertices(grid, sizes["tiles"], rng)
    edges = _RoadEdges(grid, graph, _centre(grid), rng)
    # The traffic shape is the workload's, not the seed's: which stratum
    # is popular, the class order and the popularity ranks repeat across
    # seeds, so the hit ratio does too.
    shape = random.Random("serve-mixed/shape")
    shape.shuffle(hot)
    weights = [1.0 / (rank + 1) for rank in range(len(hot))]  # Zipf(1)
    ops: list[Op] = []
    for i in range(sizes["queries"]):
        if i % 10 == 0:
            block = ["sssp"] * 6 + ["bfs"] * 3 + ["cc"]
            shape.shuffle(block)
        cls = block[i % 10]
        rank = shape.choices(range(len(hot)), weights)[0]
        ops.append(
            Op("query", cls, {} if cls == "cc" else {"source": hot[rank]})
        )
        if (i + 1) % sizes["update_every"] == 0:
            # No delete here: one that hits an edge of CC's private
            # spanning forest restarts the whole component (~50 ms beside
            # ~30), 3 % of them do, and a schedule can neither choose nor
            # average that cost mode. The road workloads keep deletes.
            ops.append(edges.batch(longer=(4, 8), shorter=(4,), delete=None))
    standing = (("sssp", "sssp", {"source": _centre(grid)}), ("cc", "cc", {}))
    cold = Op("query", "sssp", {"source": (rows // 4) * cols + cols // 4})
    return Schedule(standing, cold, tuple(ops))
