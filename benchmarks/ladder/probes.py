"""Direct probes of the traced run, and the run stamp.

The set-up layers (partition, fragment build, pickle, pool start) are
timed by calling their public functions directly — the same calls a
``Session`` makes — because a deterministic program costs the same
either way and no span inside ``src/`` is needed. The variant probes
replay road-sssp-hash's queries with one deployment option changed.
"""

from __future__ import annotations

import gc
import os
import pickle
import platform
import resource
import sys
from collections import defaultdict
from dataclasses import replace
from heapq import heappop, heappush
from time import perf_counter

from repro.graph.fragment import build_fragments
from repro.partition.base import evaluate_partition
from repro.partition.registry import get_partitioner
from repro.runtime.backends import make_backend

from benchmarks.ladder.harness import replay
from benchmarks.ladder.metrics import MIB, mean, quiet_ms
from benchmarks.ladder.workloads import Schedule


def ref_kernel_ms(iterations: int = 100_000) -> float:
    """A fixed dict+heap loop: how fast is this machine right now?"""
    start = perf_counter()
    table: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(iterations):
        key = (i * 7919) % 10007
        table[key] = table.get(key, 0) + i
        heappush(heap, (table[key] & 1023, i))
        if i & 1:
            heappop(heap)
    return (perf_counter() - start) * 1e3


class Machine:
    """Tells the box's two speeds apart, and waits for the fast one.

    The boxes this runs on have two clean speeds 1.75-1.85x apart (a
    2 000-iteration probe reads ~180 us or ~330 us, little between) and
    hold either for seconds to minutes: the host's cores with and without
    turbo, by the ratio. A sample taken at the slow speed teaches the
    minimum nothing. So a short probe of the reference loop runs before
    and after every op, an op is *settled* once ``SETTLED`` of its
    samples had both probes within 35 % of the fastest probe this run has
    seen, and before an op that is not settled the run waits, off the
    clock and for at most ``patience`` seconds in all, for the fast speed.
    A run that never sees the fast speed cannot know it exists.
    """

    PROBE_ITERATIONS = 500
    #: A reading stays good this long: speeds change over seconds.
    FRESH_S = 0.005
    SETTLED = 3

    def __init__(self, patience: float) -> None:
        self.patience = patience
        self.waited = 0.0
        self.floor = float("inf")
        #: op id -> the slower of the two probe readings around each sample
        self.seen: dict[int, list[float]] = defaultdict(list)
        self._reading = 0.0
        self._read_at = float("-inf")

    def probe(self) -> float:
        if perf_counter() - self._read_at > self.FRESH_S:
            self._reading = ref_kernel_ms(self.PROBE_ITERATIONS)
            self.floor = min(self.floor, self._reading)
            self._read_at = perf_counter()
        return self._reading

    def _fast(self, reading: float) -> bool:
        return reading <= 1.35 * self.floor

    def settled(self, op: int) -> bool:
        return sum(map(self._fast, self.seen[op])) >= self.SETTLED

    def before(self, op: int) -> float:
        """The probe reading before ``op``, after waiting if it pays."""
        reading = self.probe()
        if not self._fast(reading) and not self.settled(op):
            start = perf_counter()
            while not self._fast(reading) and (
                perf_counter() - start < self.patience
            ):
                reading = self.probe()
            spent = perf_counter() - start
            self.patience -= spent
            self.waited += spent
        return reading

    def after(self, op: int, before: float) -> None:
        self.seen[op].append(max(before, self.probe()))


def rss_mb() -> tuple[float, float]:
    """(this interpreter's peak RSS, the largest reaped worker's), MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def _deep_bytes(root: object) -> int:
    """Resident bytes of ``root`` and everything only it references."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    shared = (type, type(sys), type(_deep_bytes))
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, shared):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def setup_layers(spec, graph, repeats: int = 3) -> dict:
    """Quiet (min of ``repeats``) time of each set-up layer, plus sizes."""
    partitioner = get_partitioner(spec.partition)
    times = {"partition": [], "build": [], "pickle": [], "start": []}
    for _ in range(repeats):
        gc.collect()
        start = perf_counter()
        assignment = partitioner(graph, spec.fragments)
        times["partition"].append(perf_counter() - start)
        start = perf_counter()
        fragmented = build_fragments(
            graph,
            assignment,
            spec.fragments,
            strategy=partitioner.name,
            store=spec.store,
        )
        times["build"].append(perf_counter() - start)
        start = perf_counter()
        blobs = [
            pickle.dumps(frag, protocol=pickle.HIGHEST_PROTOCOL)
            for frag in fragmented.fragments
        ]
        times["pickle"].append(perf_counter() - start)
        start = perf_counter()
        backend = make_backend(spec.backend, fragmented)
        try:
            backend.partials()  # one round trip: every worker holds its fragment
            times["start"].append(perf_counter() - start)
        finally:
            backend.close()
    report = evaluate_partition(graph, assignment, spec.fragments)
    stored_edges = sum(f.graph.num_edges for f in fragmented.fragments)
    store_bytes = sum(_deep_bytes(f.graph.store) for f in fragmented.fragments)
    return {
        "partition.partition_s": min(times["partition"]),
        "partition.edge_cut_ratio": report.cut_fraction,
        "partition.border_vertices": len(
            set().union(*(f.border for f in fragmented.fragments))
        ),
        "graph.fragment.build_s": min(times["build"]),
        "graph.fragment.bytes_per_edge": store_bytes / max(1, stored_edges),
        "runtime.backends.pickle_s": min(times["pickle"]),
        "runtime.backends.ship_mb": sum(map(len, blobs)) / MIB,
        "runtime.backends.start_s": min(times["start"]),
    }


#: One-axis variants of road-sssp-hash (the process pool gets two
#: fragments, not four: worker processes stay within the two cores).
VARIANT_WORKLOAD = "road-sssp-hash"
VARIANTS = {
    "graph.csr.query_ms": {"store": "csr"},
    "core.engine.relaxed_query_ms": {"mode": "relaxed"},
    "runtime.backends.process_query_ms": {"backend": "process", "fragments": 2},
    # measured as a query time, reported against the plain one
    "obs.tracer_overhead_pct": {"obs_tracer": True},
}


def variant_query_ms(spec, graph, schedule, judge, changes, repeats=2) -> float:
    """Mean quiet query time of the schedule's queries under ``changes``."""
    variant = replace(spec, **changes)
    if variant.store != spec.store:
        graph = graph.with_store(variant.store)
    queries = Schedule(
        schedule.standing,
        schedule.cold,
        tuple(op for op in schedule.ops if op.kind == "query"),
    )
    runs = [replay(variant, graph, queries, judge) for _ in range(repeats)]
    return mean(quiet_ms(queries, runs, "query"))


def stamp(seed: int, smoke: bool) -> dict:
    """Where and when a result was measured."""
    return {
        "python": platform.python_version(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
        "seed": seed,
        "smoke": smoke,
    }
