"""Unit tests for the unified ΔG subsystem (``repro.core.delta``):
batch coercion, routing semantics (weight fill-in, insert-of-existing
reclassification, duplicate-edge ban), mirror pruning on deletion,
EngineState pickle back-compat, and the repair-mode ladder
(monotone/scoped/full)."""

import json
import pickle
from dataclasses import astuple

import pytest

from repro.algorithms.sequential.dijkstra import single_source
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.delta import (
    DeltaRepairStats,
    EdgeDelete,
    EdgeInsert,
    EdgeReweight,
    EngineState,
    GraphDelta,
    apply_delta,
)
from repro.core import engine as engine_module
from repro.core.engine import GrapeEngine
from repro.engineapi.cli import main
from repro.errors import ProgramError
from repro.graph.digraph import Graph
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner
from repro.runtime.backends import BACKENDS, make_backend
from repro.service.service import canonical_answer_bytes


def _line_graph(n=6, weight=1.0):
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for v in range(n - 1):
        g.add_edge(v, v + 1, weight)
    return g


# ------------------------------------------------------------- coercion
def test_coerce_accepts_all_tuple_forms():
    delta = GraphDelta.coerce(
        [
            (0, 1),  # bare pair: historical insert form
            (1, 2, 3.5, "road"),  # with weight and label
            ("insert", 2, 3, 0.5),
            ("delete", 3, 4),
            ("reweight", 4, 5, 9.0),
            EdgeDelete(5, 6),
        ]
    )
    assert [op.kind for op in delta] == [
        "insert", "insert", "insert", "delete", "reweight", "delete",
    ]
    assert delta.ops[0] == EdgeInsert(0, 1, 1.0)
    assert delta.ops[1] == EdgeInsert(1, 2, 3.5, "road")
    assert (delta.inserts, delta.deletes, delta.reweights) == (3, 2, 1)
    assert len(delta) == 6 and bool(delta)


def test_coerce_passthrough_none_and_delta():
    empty = GraphDelta.coerce(None)
    assert len(empty) == 0 and not empty
    delta = GraphDelta(ops=(EdgeInsert(0, 1),))
    assert GraphDelta.coerce(delta) is delta


@pytest.mark.parametrize(
    "bad", [object(), [("reweight", 0, 1)], [("delete", 0, 1, 2, 3)], [42]]
)
def test_coerce_rejects_malformed(bad):
    with pytest.raises(ProgramError):
        GraphDelta.coerce(bad)


def test_from_dict_json_form():
    delta = GraphDelta.from_dict(
        {
            "insert": [[0, 1, 2.0], [1, 2]],
            "delete": [[2, 3]],
            "reweight": [[3, 4, 7.5]],
        }
    )
    assert (delta.inserts, delta.deletes, delta.reweights) == (2, 1, 1)
    assert delta.ops[2] == EdgeDelete(2, 3)
    assert delta.ops[3] == EdgeReweight(3, 4, 7.5)
    assert len(GraphDelta.from_dict({})) == 0


MALFORMED_JSON = [
    pytest.param([[0, 1]], "JSON object", id="top-level-list"),
    pytest.param({"delete": 5}, "'delete' must hold a list", id="non-list"),
    pytest.param({"delete": [5]}, "row 5", id="non-sequence-row"),
    pytest.param(
        {"insert": [[0, 1, "heavy"]]}, "weight 'heavy'", id="non-numeric"
    ),
    pytest.param(
        {"deletes": [[0, 1]]}, "unknown graph delta key 'deletes'",
        id="misspelt-key",
    ),
]


@pytest.mark.parametrize("data,named", MALFORMED_JSON)
def test_from_dict_rejects_malformed_json(data, named):
    """The argument is outside input (``--updates FILE``): every shape
    error is a typed one naming the offending key or row — and a
    misspelt section is not silently an empty batch."""
    with pytest.raises(ProgramError, match=named):
        GraphDelta.from_dict(data)


@pytest.mark.parametrize("data,named", MALFORMED_JSON)
def test_cli_malformed_updates_is_a_typed_error(data, named, capsys, tmp_path):
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps(data))
    rc = main([
        "run", "--graph", "road:4x4", "--query", "sssp", "--source", "0",
        "--updates", str(updates),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err
    assert "delta repair:" not in captured.out


# -------------------------------------------------------------- routing
def test_delete_records_removed_weight():
    g = _line_graph(3, weight=4.0)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0}, 1)
    touched = apply_delta(fragd, [("delete", 0, 1)])
    (op,) = touched[0]
    assert op == EdgeDelete(0, 1, weight=4.0)
    assert not fragd.fragments[0].graph.has_edge(0, 1)


def test_reweight_records_old_weight():
    g = _line_graph(3, weight=4.0)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0}, 1)
    touched = apply_delta(fragd, [("reweight", 1, 2, 0.5)])
    (op,) = touched[0]
    assert op == EdgeReweight(1, 2, 0.5, old_weight=4.0)
    assert fragd.fragments[0].graph.edge_weight(1, 2) == 0.5


def test_insert_of_existing_edge_becomes_reweight():
    g = _line_graph(3, weight=1.0)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0}, 1)
    touched = apply_delta(fragd, [EdgeInsert(0, 1, 9.0)])
    (op,) = touched[0]
    # A weight *increase* must not masquerade as a monotone-safe insert.
    assert op == EdgeReweight(0, 1, 9.0, old_weight=1.0)
    assert fragd.fragments[0].graph.edge_weight(0, 1) == 9.0


def test_duplicate_edge_reference_rejected():
    g = _line_graph(3)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0}, 1)
    with pytest.raises(ProgramError, match="more than once"):
        apply_delta(fragd, [("delete", 0, 1), ("insert", 0, 1, 2.0)])


def test_unknown_vertex_rejected():
    g = _line_graph(2)
    fragd = build_fragments(g, {0: 0, 1: 0}, 1)
    with pytest.raises(ProgramError, match="unknown vertex"):
        apply_delta(fragd, [("delete", 99, 0)])


def test_delete_of_absent_edge_rejected():
    g = _line_graph(3)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 0}, 1)
    with pytest.raises(ProgramError):
        apply_delta(fragd, [("delete", 2, 0)])


def test_cross_fragment_delete_prunes_stranded_mirror():
    g = Graph()
    for v in range(3):
        g.add_vertex(v)
    g.add_edge(0, 2)  # cross edge: fragment 0 mirrors vertex 2
    g.add_edge(1, 2)
    fragd = build_fragments(g, {0: 0, 1: 0, 2: 1}, 2)
    assert fragd.fragments[0].mirrors == {2: 1}
    touched = apply_delta(fragd, [("delete", 0, 2)])
    assert set(touched) == {0, 1}  # dst owner notified for border upkeep
    assert fragd.fragments[0].mirrors == {2: 1}  # 1->2 still references it
    apply_delta(fragd, [("delete", 1, 2)])
    assert fragd.fragments[0].mirrors == {}  # stranded mirror dropped
    assert fragd.routes[2] == {1}


# ------------------------------------------------------------ atomicity
def _road_fragments():
    graph = road_network(6, 6, seed=1)
    return build_fragments(graph, get_partitioner("hash")(graph, 2), 2)


@pytest.mark.parametrize(
    "bad",
    [
        ("delete", 0, 999),  # unknown endpoint
        ("delete", 0, 2),  # absent edge
        ("reweight", 0, 2, 3.0),  # absent edge
        ("reweight", 0, 1, -3.0),  # negative weight
        ("delete", 0, 35),  # the edge the first op inserts
        ("reweight", 0, 1, float("nan")),  # NaN: neither < 0 nor >= 0
        ("insert", 0, 7, float("nan")),
    ],
)
def test_rejected_batch_leaves_fragments_untouched(bad):
    """A ΔG batch is atomic: whichever op is bad, the ops before it
    must not have landed."""
    fragd = _road_fragments()
    before = pickle.dumps((fragd.fragments, dict(fragd.routes)))
    with pytest.raises(ProgramError):
        apply_delta(fragd, [("insert", 0, 35, 0.5), bad])
    assert pickle.dumps((fragd.fragments, dict(fragd.routes))) == before


def test_rejected_batch_is_invisible_on_every_backend():
    """The coordinator's fragments and a process worker's copies must
    not disagree about a batch that was refused."""
    answers = {}
    for name in BACKENDS:
        fragd = _road_fragments()
        backend = make_backend(name, fragd)
        try:
            engine = GrapeEngine(fragd, backend=backend)
            program, query = SSSPProgram(), SSSPQuery(source=0)
            cold = engine.run(program, query).answer
            with pytest.raises(ProgramError):
                engine.apply_delta(
                    [("insert", 0, 35, 0.5), ("delete", 0, 999)]
                )
            answers[name] = engine.run(program, query).answer
            assert answers[name] == cold, name
        finally:
            backend.close()
    assert cold[35] > 0.5
    assert answers["simulated"] == answers["process"]


# --------------------------------------------------- pickle back-compat
def test_engine_state_pickle_roundtrip():
    state = EngineState(
        partials=[{0: 0.0}], params=[{}], program_name="sssp",
        num_fragments=1,
    )
    clone = pickle.loads(pickle.dumps(state))
    assert clone == state


def test_engine_state_loads_pre_provenance_pickles():
    state = EngineState(partials=[{0: 0.0}], params=[{}])
    # Simulate a checkpoint written before provenance fields existed.
    del state.__dict__["program_name"]
    del state.__dict__["num_fragments"]
    clone = pickle.loads(pickle.dumps(state))
    assert clone.program_name == ""
    assert clone.num_fragments == 0
    assert clone.partials == [{0: 0.0}]


# ------------------------------------------------------ repair-mode ladder
def _kept_run():
    g = _line_graph(8)
    fragd = build_fragments(g, {v: v // 4 for v in range(8)}, 2)
    engine = GrapeEngine(fragd)
    program = SSSPProgram()
    query = SSSPQuery(source=0)
    first = engine.run(program, query, keep_state=True)
    return engine, program, query, first


@pytest.mark.parametrize(
    ("fraction", "batch", "mode"),
    [
        (1.0, [("insert", 0, 3, 0.5)], "monotone"),
        (1.0, [("delete", 6, 7)], "scoped"),
        (0.0, [("delete", 6, 7)], "full"),
    ],
)
def test_repair_mode_ladder(monkeypatch, fraction, batch, mode):
    monkeypatch.setattr(engine_module, "REPAIR_FRACTION", fraction)
    engine, program, query, first = _kept_run()
    second = engine.run_incremental(program, query, first.state, batch)
    assert second.repair.mode == mode
    if mode == "monotone":
        assert second.repair.unsafe_ops == 0
    else:
        assert second.repair.unsafe_ops == 1
    if mode == "scoped":
        assert 0 < second.repair.invalidated < 8
        assert second.repair.fragments  # per-fragment breakdown recorded


def _two_delete_batches(fresh_engine_per_batch):
    graph = road_network(12, 12, seed=3)
    assignment = get_partitioner("multilevel")(graph, 2)
    fragd = build_fragments(graph, assignment, 2, "multilevel")
    engine = GrapeEngine(fragd)
    program, query = SSSPProgram(), SSSPQuery(source=0)
    result = engine.run(program, query, keep_state=True)
    trail = []
    for batch in ([("delete", 131, 143)], [("delete", 0, 1)]):
        if fresh_engine_per_batch:
            engine = GrapeEngine(fragd)
        result = engine.run_incremental(program, query, result.state, batch)
        trail.append(
            (
                result.repair.mode,
                result.repair.invalidated,
                result.repair.resets,
                [astuple(r) for r in result.rounds],
                canonical_answer_bytes(result.answer),
            )
        )
    graph.remove_edge(131, 143)
    graph.remove_edge(0, 1)
    assert result.answer == single_source(graph, 0)
    return trail


def test_repair_path_is_a_function_of_state_and_delta():
    """Same kept state + same ΔG => same repair path, whatever the age
    of the engine object: an engine holds no state between runs."""
    long_lived = _two_delete_batches(fresh_engine_per_batch=False)
    assert long_lived == _two_delete_batches(fresh_engine_per_batch=True)
    # Batch 2 invalidates 29 of fragment 1's 86 vertices: 34 %, under
    # the 0.5 threshold, so one scoped repair round and no restart.
    assert [(mode, inv) for mode, inv, *_ in long_lived] == [
        ("scoped", 1), ("scoped", 33),
    ]


def test_repair_stats_as_dict_is_json_ready():
    stats = DeltaRepairStats(
        mode="scoped", safe_ops=1, unsafe_ops=2, invalidated=3, resets=3,
        invalidation_rounds=1, fragments={1: 2, 0: 1},
    )
    assert stats.as_dict() == {
        "mode": "scoped",
        "safe_ops": 1,
        "unsafe_ops": 2,
        "invalidated": 3,
        "resets": 3,
        "invalidation_rounds": 1,
        "fragments": {"0": 1, "1": 2},
    }
