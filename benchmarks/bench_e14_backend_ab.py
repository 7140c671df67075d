"""E14 — execution backend A/B: simulated oracle vs multiprocessing.

The tentpole claim of the backends subsystem is *byte-exactness*: the
process backend must produce exactly the simulator's answers and
deterministic metrics, with only wall clock free to differ. This bench
locks that down on road:40x40 and records the wall-clock curve (median
of ``REPEATS`` timed runs per backend per worker count, after one
untimed warmup that starts the pool) into
``benchmarks/results/e14_backend_ab.json``.

Honest-measurement note: OS-process parallelism can only pay for its
IPC when there are cores to run the workers on. The recorded JSON
carries ``cpus_available`` and ``process_speedup`` as measured, and
this bench asserts only the answer and metric equivalence, which hold
on any core count. The wall-clock verdict on the process backend is
the ladder's (``python -m benchmarks.ladder --workload
road-sssp-csr-proc --trace 1``: ``runtime.backends.process_query_ms``),
which waits out the host's slow stretches.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from benchmarks.helpers import RESULTS_DIR, format_rows, write_result
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.graph.generators import graph_from_spec
from repro.runtime.costmodel import CostModel
from repro.service.service import canonical_answer_bytes

GRAPH_SPEC = "road:40x40"
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3

#: program -> query params; pagerank is the compute-dense headline row,
#: sssp the traversal row (frontier supersteps, worst case for IPC).
PROGRAMS = {
    "pagerank": {},
    "sssp": {"source": 0},
}


def _cpus_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_runs(backend: str, name: str, params: dict, workers: int):
    graph = graph_from_spec(GRAPH_SPEC)
    # Deterministic cost model: simulated metrics are pure functions of
    # the run, so the A/B can assert metric equality, not just answers.
    session = Session(
        graph,
        num_workers=workers,
        partition="hash",
        cost_model=CostModel(deterministic=True),
        backend=backend,
    )
    kwargs = {"total_vertices": graph.num_vertices} if name == "pagerank" \
        else {}
    program = get_program(name, **kwargs)
    query = build_query(name, **params)
    try:
        result = session.run(program, query)  # warmup; starts the pool
        answer = canonical_answer_bytes(result.answer)
        metrics = result.metrics.as_dict()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            result = session.run(program, query)
            times.append(time.perf_counter() - t0)
    finally:
        session.close()
    return {
        "answer": answer,
        "metrics": metrics,
        "median_s": statistics.median(times),
        "min_s": min(times),
    }


def test_e14_backend_ab():
    cpus = _cpus_available()
    record: dict = {
        "graph": GRAPH_SPEC,
        "repeats": REPEATS,
        "cpus_available": cpus,
        "programs": {},
    }
    rows = []
    for name, params in PROGRAMS.items():
        curve: dict = {}
        for workers in WORKER_COUNTS:
            simulated = _timed_runs("simulated", name, params, workers)
            process = _timed_runs("process", name, params, workers)
            # The tentpole: byte-identical answers AND identical
            # deterministic metrics — only wall clock may differ.
            assert simulated["answer"] == process["answer"], (
                f"{name}@{workers}: process backend diverged from oracle"
            )
            assert simulated["metrics"] == process["metrics"], (
                f"{name}@{workers}: deterministic metrics diverged"
            )
            speedup = (
                simulated["median_s"] / process["median_s"]
                if process["median_s"] > 0
                else float("inf")
            )
            curve[str(workers)] = {
                "simulated_median_s": round(simulated["median_s"], 4),
                "process_median_s": round(process["median_s"], 4),
                "process_speedup": round(speedup, 3),
            }
            rows.append(
                [
                    name,
                    workers,
                    f"{simulated['median_s'] * 1000:.1f}",
                    f"{process['median_s'] * 1000:.1f}",
                    f"{speedup:.2f}x",
                    "yes",
                ]
            )
        record["programs"][name] = curve

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "e14_backend_ab.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    caveat = (
        ""
        if cpus >= 2
        else f"\n(single-core host: {cpus} cpu visible — process rows "
        "measure dispatch overhead, not parallel speedup)"
    )
    write_result(
        "e14_backend_ab",
        f"E14 backend A/B on {GRAPH_SPEC} "
        f"({cpus} cpu(s), median of {REPEATS})\n"
        + format_rows(
            ["program", "workers", "simulated ms", "process ms",
             "speedup", "byte-identical"],
            rows,
        )
        + caveat,
    )
