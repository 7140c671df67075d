"""The seams, for the five programs no per-axis oracle reaches.

``test_backend_oracle``, ``test_store_oracle`` and ``test_relaxed_oracle``
cover SSSP/BFS/CC/kcore one axis at a time. Here PageRank, Sim, SubIso,
Keyword and CF run cold across store x backend: the canonical answer
bytes and ``metrics.as_dict()`` — which carries the work the program
charged through its update parameters — must equal the dict/simulated
reference in every cell. The relaxed cells pin the bind gate's widened
side: Keyword declares a custom partial order, PageRank the stock ``MAX``
over its per-source slots, and both run relaxed with strict mode's
bytes; CF declares ``UNORDERED`` and is refused.
"""

from __future__ import annotations

import functools
import pickle

import pytest

from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.errors import ProgramError
from repro.graph.fragment import build_fragments, expand_fragments
from repro.graph.generators import (
    bipartite_ratings,
    labeled_social,
    power_law,
)
from repro.partition.registry import get_partitioner
from repro.runtime.backends import make_backend
from repro.runtime.costmodel import CostModel
from repro.service.service import canonical_answer_bytes

from tests.algorithms.test_pie_sim_subiso import _chain_pattern

NUM_WORKERS = 3
CELLS = [("csr", "simulated"), ("dict", "process"), ("csr", "process")]


def _case(name: str):
    """(graph, program kwargs, query) for one program."""
    if name == "pagerank":
        graph = power_law(120)
        return graph, {"total_vertices": graph.num_vertices}, build_query(name)
    if name == "cf":
        return bipartite_ratings(30, 20), {}, build_query(name, epochs=3)
    graph = labeled_social(120, seed=1)
    if name == "keyword":
        return graph, {}, build_query(name, keywords=["person", "product"])
    return graph, {}, build_query(name, pattern=_chain_pattern(), pivot="a")


def _run(name: str, store: str = "dict", backend: str = "simulated",
         **engine_kwargs):
    graph, program_kwargs, query = _case(name)
    assignment = get_partitioner("hash")(graph, NUM_WORKERS)
    fragmented = build_fragments(
        graph, assignment, NUM_WORKERS, "hash", store=store
    )
    if name == "subiso":
        fragmented = expand_fragments(
            graph, fragmented, query.radius(), store=store
        )
    assert fragmented.store_kind == store
    executor = make_backend(backend, fragmented, deterministic=True)
    engine = GrapeEngine(
        fragmented,
        cost_model=CostModel(deterministic=True),
        backend=executor,
        **engine_kwargs,
    )
    try:
        return engine.run(
            get_program(name, **program_kwargs),
            query,
            keep_state=name != "cf",  # CF's UNORDERED order cannot pickle
        )
    finally:
        executor.close()


def _observed(result) -> tuple[bytes, dict]:
    return canonical_answer_bytes(result.answer), result.metrics.as_dict()


@functools.lru_cache(maxsize=None)
def _reference(name: str) -> tuple[bytes, dict]:
    """dict/simulated, computed once for a program's three cells."""
    return _observed(_run(name))


@pytest.mark.parametrize("store,backend", CELLS)
@pytest.mark.parametrize("name", ["pagerank", "sim", "subiso", "keyword", "cf"])
def test_store_and_backend_seams_hold(name, store, backend):
    reference = _reference(name)
    assert (reference[1]["work"] > 0) == (name != "cf")  # CF charges none
    assert _observed(_run(name, store, backend)) == reference


@pytest.mark.parametrize("name", ["keyword", "pagerank"])
def test_custom_orders_run_relaxed_with_strict_direct_bytes(name):
    strict = _run(name)
    relaxed = _run(name, mode="relaxed")
    assert canonical_answer_bytes(relaxed.answer) == canonical_answer_bytes(
        strict.answer
    )
    assert pickle.dumps(
        (relaxed.state.partials, relaxed.state.params)
    ) == pickle.dumps((strict.state.partials, strict.state.params))
    assert relaxed.metrics.work() == strict.metrics.work()
    assert relaxed.total_time <= strict.total_time


def test_unordered_aggregator_is_refused_relaxed():
    with pytest.raises(ProgramError, match="unordered") as exc:
        _run("cf", mode="relaxed")
    assert "CFProgram" in str(exc.value)
    assert "'factor-blend'" in str(exc.value)
