"""The oracle lattice: every execution seam is invisible in answers,
traffic and repair.

The Assurance Theorem makes ``Q(G)`` a function of the PIE program and
its aggregator alone, so no cell of

    store {dict, csr, csr compacting every 3 ops}
    x backend {simulated, process} x mode {strict, relaxed}
    x tracer {off, on}

may differ from the dict/simulated/strict/untraced reference in
:func:`~tests.property.scenarios.observe` (answer bytes, RoundInfo
trail, per-superstep dataflow, repair stats). Strict cells repeat the
reference's full metrics too; relaxed cells may only finish sooner than
the strict cell beside them. Kept state and checkpoint blobs are
byte-equal to the strict, untraced run on the same store and backend,
and equal by value to the reference (a pickle made in a worker process
shares memo entries and orders sets differently).

SSSP, BFS, CC and k-core on ``road:8x8`` under two partitioners run
through all 24 cells, each replaying
:func:`~tests.property.scenarios.delta_batches` with a checkpoint every
round and checked against the sequential oracle. PageRank, Sim, SubIso,
Keyword and CF run cold through the 16 cells without the compacting
store, whose 3-op side log only ΔG fills. The cells are looped inside
one test per case so each case's reference runs once.
"""

from __future__ import annotations

import functools
import itertools
import json
import pickle

import pytest

from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.errors import ProgramError
from repro.graph.csr import CSRStore
from repro.graph.fragment import build_fragments, expand_fragments
from repro.graph.generators import graph_from_spec
from repro.obs import Tracer
from repro.partition.registry import get_partitioner
from repro.runtime.backends import make_backend
from repro.runtime.costmodel import CostModel

from tests.property.scenarios import (
    COLD_PROGRAMS,
    DELTA_PROGRAMS,
    GRAPH_SPEC,
    NUM_WORKERS,
    Snapshots,
    assert_sequential,
    cold_case,
    delta_batches,
    observe,
    post_graph,
)

STORES = {
    "dict": lambda: "dict",
    "csr": lambda: "csr",
    "csr/compact3": lambda: CSRStore(compact_threshold=3),
}
CELLS = list(
    itertools.product(
        STORES, ("simulated", "process"), ("strict", "relaxed"), (False, True)
    )
)
REFERENCE = CELLS[0]
DELTA_CASES = [
    (name, strategy)
    for name in DELTA_PROGRAMS
    for strategy in ("hash", "multilevel")
]


def _tag(cell) -> str:
    store, backend, mode, traced = cell
    return f"{store}/{backend}/{mode}/tracer={'on' if traced else 'off'}"


@functools.lru_cache(maxsize=None)
def _inputs(case):
    """(graph, program, query, ΔG batches, assignment) for one case —
    shared by its cells, which only read them."""
    name, strategy = case
    if name in DELTA_PROGRAMS:
        graph = graph_from_spec(GRAPH_SPEC)
        program, query = get_program(name), build_query(
            name, **DELTA_PROGRAMS[name][0]
        )
        batches = delta_batches(name, strategy)
    else:
        graph, kwargs, query = cold_case(name)
        program, batches = get_program(name, **kwargs), []
    assignment = get_partitioner(strategy)(graph, NUM_WORKERS)
    return graph, program, query, batches, assignment


def _run_cell(case, cell) -> dict:
    """The case's whole run sequence in one cell."""
    store, backend_name, mode, traced = cell
    graph, program, query, batches, assignment = _inputs(case)
    proto = STORES[store]()
    fragmented = build_fragments(
        graph, assignment, NUM_WORKERS, case[1], store=proto
    )
    if case[0] == "subiso":
        fragmented = expand_fragments(
            graph, fragmented, query.radius(), store=proto
        )
    assert fragmented.store_kind == store.split("/")[0]
    keep = case[0] != "cf"  # CF's UNORDERED order cannot pickle
    tracer = Tracer() if traced else None
    backend = make_backend(backend_name, fragmented, deterministic=True)
    engine = GrapeEngine(
        fragmented,
        cost_model=CostModel(deterministic=True),
        backend=backend,
        mode=mode,
        tracer=tracer,
    )
    snapshots = Snapshots()

    def policy(step):
        """A snapshot every round of a ΔG case's runs."""
        if batches:
            return CheckpointPolicy(snapshots, every=1, tag=f"step{step}")
        return None

    try:
        result = engine.run(
            program, query, keep_state=keep, checkpoint=policy(0)
        )
        results = [result]
        for step, ops in enumerate(batches, 1):
            result = engine.run_incremental(
                program, query, result.state, ops, checkpoint=policy(step)
            )
            results.append(result)
    finally:
        backend.close()
    trail = {
        "answers": [result.answer for result in results],
        "steps": [
            {
                "observed": observe(result),
                "metrics": json.dumps(
                    result.metrics.as_dict(include_supersteps=True),
                    sort_keys=True,
                ),
                "time": result.metrics.total_time,
                "state": pickle.dumps(
                    (result.state.partials, result.state.params)
                ) if keep else None,
            }
            for result in results
        ],
        "blobs": snapshots,
    }
    if tracer is not None:
        assert len(tracer.select("run_begin")) == len(results), _tag(cell)
    if store == "csr/compact3":
        stores = [f.graph.store for f in fragmented.fragments]
        assert sum(s.compactions for s in stores) > 0, _tag(cell)
    return trail


SCALARS = (bool, int, float, str, bytes)


def by_value(obj):
    """``obj`` with every dict and set order erased, objects as their
    class name and attributes — equal for equal contents."""
    if obj is None or isinstance(obj, SCALARS):
        return obj
    if isinstance(obj, (set, frozenset)):
        return _sorted(by_value(x) for x in obj)
    if isinstance(obj, dict):
        return _sorted((by_value(k), by_value(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        if all(isinstance(x, SCALARS) for x in obj):
            return obj
        return type(obj).__name__, [by_value(x) for x in obj]
    if hasattr(obj, "__dict__") and not callable(obj):
        return type(obj).__qualname__, by_value(vars(obj))
    return obj


def _sorted(items) -> list:
    items = list(items)
    try:
        return sorted(items)
    except TypeError:  # mixed key types
        return sorted(items, key=repr)


def _check_lattice(case, reference) -> None:
    """Run every other cell of ``case`` and hold it to ``reference``,
    the case's dict/simulated/strict/untraced trail."""
    values = {}

    def same_value(got, want) -> bool:
        """Equal pickles, or pickles of equal contents."""
        for blob in {got, want} - values.keys():
            values[blob] = by_value(pickle.loads(blob)) if blob else blob
        return got == want or values[got] == values[want]

    runs = {REFERENCE: reference}
    for cell in CELLS[1:]:
        store, backend, mode, traced = cell
        if store == "csr/compact3" and case[0] not in DELTA_PROGRAMS:
            continue  # without ΔG the side log never reaches 3 ops
        if case[0] == "cf" and mode == "relaxed":
            with pytest.raises(ProgramError, match="unordered") as exc:
                _run_cell(case, cell)
            assert "CFProgram" in str(exc.value), _tag(cell)
            assert "'factor-blend'" in str(exc.value), _tag(cell)
            continue
        runs[cell] = _run_cell(case, cell)
    for cell, trail in runs.items():
        store, backend, mode, traced = cell
        local = runs[(store, backend, "strict", False)]
        steps = trail["steps"]
        assert len(steps) == len(reference["steps"]), _tag(cell)
        for i, (want, got) in enumerate(zip(reference["steps"], steps)):
            where = f"{case[0]}/{case[1]} {_tag(cell)} step {i}"
            assert got["observed"] == want["observed"], where
            if mode == "strict":
                assert got["metrics"] == want["metrics"], where
            else:
                strict = runs[(store, backend, "strict", traced)]
                assert got["time"] <= strict["steps"][i]["time"] + 1e-12, (
                    where
                )
            assert got["state"] == local["steps"][i]["state"], where
            assert same_value(got["state"], want["state"]), where
        assert trail["blobs"] == local["blobs"], _tag(cell)
        assert trail["blobs"].keys() == reference["blobs"].keys(), _tag(cell)
        for name, blob in trail["blobs"].items():
            want = reference["blobs"][name]
            if name.endswith(".json"):  # the latest-round pointer
                assert blob == want, f"{_tag(cell)} {name}"
            else:
                assert same_value(blob, want), f"{_tag(cell)} {name}"


@pytest.mark.parametrize("name,strategy", DELTA_CASES)
def test_delta_case_holds_in_every_cell(name, strategy):
    graph, _, query, batches, _ = _inputs((name, strategy))
    reference = _run_cell((name, strategy), REFERENCE)
    for i, ops in enumerate(batches, 1):
        graph = post_graph(graph, ops)
        assert_sequential(
            name, reference["answers"][i], graph, query,
            f"{name}/{strategy} batch {i}",
        )
    _check_lattice((name, strategy), reference)


@pytest.mark.parametrize("name", COLD_PROGRAMS)
def test_cold_case_holds_in_every_cell(name):
    reference = _run_cell((name, "hash"), REFERENCE)
    charged = json.loads(reference["steps"][0]["metrics"])["work"]
    assert (charged > 0) == (name != "cf")  # CF charges none
    _check_lattice((name, "hash"), reference)


def test_delta_cases_reach_every_repair_mode():
    modes = {
        step["observed"][3]["mode"]
        for case in DELTA_CASES
        for step in _run_cell(case, REFERENCE)["steps"][1:]
    }
    assert modes == {"monotone", "scoped", "full"}
