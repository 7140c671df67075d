"""The handoff contract of the process backend: everything it ships
across a pipe must survive a pickle round-trip unchanged.

Covered: every fragment of a :class:`FragmentedGraph` (both partition
strategies the oracle suite exercises), :class:`EngineState` (with
provenance), :class:`GraphDelta`, and every registered builtin program.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.delta import EngineState, GraphDelta
from repro.engineapi.registry import available_programs, get_program
from repro.graph.fragment import build_fragments
from repro.graph.generators import graph_from_spec
from repro.partition.registry import get_partitioner


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@pytest.fixture(scope="module")
def graph():
    return graph_from_spec("road:8x8")


@pytest.mark.parametrize("strategy", ["hash", "multilevel"])
def test_fragments_roundtrip(graph, strategy):
    partitioner = get_partitioner(strategy)
    fragmented = build_fragments(
        graph, partitioner(graph, 3), 3, strategy=strategy
    )
    for frag in fragmented.fragments:
        clone = _roundtrip(frag)
        assert clone.fid == frag.fid
        assert sorted(clone.owned) == sorted(frag.owned)
        assert sorted(clone.border) == sorted(frag.border)
        assert sorted(clone.inner_border) == sorted(frag.inner_border)
        assert sorted(clone.mirrors) == sorted(frag.mirrors)
        assert sorted(
            (e.src, e.dst, e.weight) for e in clone.graph.edges()
        ) == sorted((e.src, e.dst, e.weight) for e in frag.graph.edges())


def test_engine_state_roundtrip():
    state = EngineState(
        partials=[{0: 1.0}, {2: 3.0}],
        params=[{"a": 1}, {"b": 2}],
        program_name="sssp",
        num_fragments=2,
    )
    clone = _roundtrip(state)
    assert clone.partials == state.partials
    assert clone.params == state.params
    assert clone.program_name == state.program_name
    assert clone.num_fragments == state.num_fragments


def test_graph_delta_roundtrip():
    delta = GraphDelta.from_dict(
        {
            "insert": [[1, 2, 0.5], [3, 4]],
            "delete": [[5, 6]],
            "reweight": [[7, 8, 2.0]],
        }
    )
    clone = _roundtrip(delta)
    assert clone.ops == delta.ops
    assert [type(op).__name__ for op in clone.ops] == [
        type(op).__name__ for op in delta.ops
    ]


@pytest.mark.parametrize("strategy", ["hash", "multilevel"])
def test_csr_fragments_roundtrip(graph, strategy):
    partitioner = get_partitioner(strategy)
    fragmented = build_fragments(
        graph, partitioner(graph, 3), 3, strategy=strategy, store="csr"
    )
    # Dirty overlay state: mutate through the facade, round-trip, then
    # compact and round-trip again — both states must ship faithfully.
    for frag in fragmented.fragments:
        owned = sorted(frag.owned)
        if len(owned) >= 2:
            frag.graph.add_edge(owned[0], owned[-1], 2.5, label="patch")
    for compacted in (False, True):
        if compacted:
            assert fragmented.compact() > 0
        for frag in fragmented.fragments:
            assert frag.graph.store_kind == "csr"
            clone = _roundtrip(frag)
            assert clone.graph.store_kind == "csr"
            assert clone.fid == frag.fid
            assert sorted(clone.owned) == sorted(frag.owned)
            assert sorted(clone.border) == sorted(frag.border)
            assert sorted(clone.mirrors) == sorted(frag.mirrors)
            assert list(clone.graph.vertices()) == list(
                frag.graph.vertices()
            )
            assert list(clone.graph.edges()) == list(frag.graph.edges())


@pytest.mark.parametrize("spec", ["road:100x100", "power:20000"])
def test_csr_fragment_pickles_smaller_than_dict(spec):
    # The whole point of the columnar layout: on the E15-scale graphs
    # the shipped bytes per fragment must strictly beat the dict store
    # (narrowed adjacency typecodes + elided all-zero label columns).
    graph = graph_from_spec(spec)
    assignment = get_partitioner("hash")(graph, 3)
    dict_frags = build_fragments(graph, assignment, 3, strategy="hash")
    csr_frags = build_fragments(
        graph, assignment, 3, strategy="hash", store="csr"
    )
    for d, c in zip(dict_frags.fragments, csr_frags.fragments):
        dict_bytes = len(pickle.dumps(d, pickle.HIGHEST_PROTOCOL))
        csr_bytes = len(pickle.dumps(c, pickle.HIGHEST_PROTOCOL))
        assert csr_bytes < dict_bytes, (
            f"{spec} fid={d.fid}: csr {csr_bytes} >= dict {dict_bytes}"
        )


@pytest.mark.parametrize("name", available_programs())
def test_builtin_programs_roundtrip(name):
    kwargs = {"total_vertices": 64} if name == "pagerank" else {}
    program = get_program(name, **kwargs)
    clone = _roundtrip(program)
    assert type(clone) is type(program)
    # Aggregator declarations must survive too: they are module-level
    # named functions, never lambdas (the GRP501 contract).
    assert _roundtrip(vars(program)) is not None


#: The programs with ΔG hooks; the other five run cold only.
_DELTA_PROGRAMS = {"sssp", "bfs", "cc", "kcore"}


@pytest.mark.parametrize("backend", ["simulated", "process"])
@pytest.mark.parametrize("name", available_programs())
def test_programs_hold_no_run_state(name, backend):
    """A program object is a declaration: a cold run (plus a mixed ΔG
    repair where the program has the hooks) leaves ``vars(program)`` at
    its constructor arguments — ``{}`` for all but PageRank's
    ``total_vertices`` and Sim's index switch — whichever side of a
    process boundary computed."""
    from repro.core.engine import GrapeEngine
    from repro.engineapi.query import build_query
    from repro.graph.fragment import expand_fragments
    from repro.runtime.backends import make_backend
    from tests.property.test_seam_matrix import _case

    if name in _DELTA_PROGRAMS:
        graph, kwargs = graph_from_spec("road:8x8"), {}
        query = build_query(
            name, **({"source": 0} if name in ("sssp", "bfs") else {})
        )
    else:
        graph, kwargs, query = _case(name)
    fragmented = build_fragments(
        graph, get_partitioner("hash")(graph, 3), 3, strategy="hash"
    )
    if name == "subiso":
        fragmented = expand_fragments(graph, fragmented, query.radius())
    program = get_program(name, **kwargs)
    declared = dict(vars(program))
    assert set(declared) <= {"total_vertices", "use_index", "_index_manager"}
    executor = make_backend(backend, fragmented)
    engine = GrapeEngine(fragmented, backend=executor)
    try:
        cold = engine.run(program, query, keep_state=name in _DELTA_PROGRAMS)
        if name in _DELTA_PROGRAMS:
            edge = min((e.src, e.dst) for e in graph.edges())
            delta = [("insert", 0, max(graph.vertices()), 0.5),
                     ("delete", *edge)]
            engine.run_incremental(program, query, cold.state, delta)
    finally:
        executor.close()
    assert vars(program) == declared
