"""Property tests for unified ΔG: a kept fixpoint repaired through a
random mixed batch (inserts + deletes + reweights) answers byte-
identically to full recomputation on the mutated graph and to the
sequential oracle, for every incrementally-maintainable program, both
repair modes and both fragment stores.

With the tracer drawn on, the same workload also runs untraced: answers,
full metrics, repair stats and checkpoint blobs must be byte-identical
(tracing is a pure observer), and both runs must be in the tracer's log.
"""

import json
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import BFSProgram, BFSQuery
from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.kcore import KCoreProgram, KCoreQuery
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.core.checkpoint import CheckpointPolicy
from repro.core import engine as engine_module
from repro.core.engine import GrapeEngine
from repro.graph.fragment import build_fragments
from repro.graph.generators import path_graph
from repro.obs import Tracer
from repro.runtime.costmodel import CostModel
from repro.service.service import canonical_answer_bytes

from tests.property.scenarios import (
    Snapshots,
    assert_sequential,
    delta_scenario,
    post_graph,
)

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
STORES = st.sampled_from(["dict", "csr"])


def _repair(make_program, query, case, store, tracer=None):
    """Cold run + repair of the case's batch; the repaired result and
    every byte-comparable output of the pair."""
    pre, assignment, parts, ops, fraction = case
    snapshots = Snapshots()
    policy = CheckpointPolicy(snapshots, every=1)
    engine = GrapeEngine(
        build_fragments(pre, assignment, parts, store=store),
        cost_model=CostModel(deterministic=True),
        tracer=tracer,
    )
    first = engine.run(
        make_program(), query, keep_state=True, checkpoint=policy
    )
    with mock.patch.object(engine_module, "REPAIR_FRACTION", fraction):
        second = engine.run_incremental(
            make_program(), query, first.state, ops, checkpoint=policy
        )
    return second, {
        "answers": [canonical_answer_bytes(r.answer) for r in (first, second)],
        "metrics": [
            json.dumps(
                r.metrics.as_dict(include_supersteps=True), sort_keys=True
            )
            for r in (first, second)
        ],
        "repair": second.repair.as_dict(),
        "checkpoints": dict(snapshots),
    }


def _repaired_equals_recompute(name, make_program, query, case, store,
                               traced):
    pre, assignment, parts, ops, _ = case
    second, untraced = _repair(make_program, query, case, store)
    if traced:
        tracer = Tracer()
        assert _repair(make_program, query, case, store, tracer)[1] == (
            untraced
        )
        # The observer did actually watch: both engine runs are logged.
        assert len(tracer.select("run_begin")) == 2
        assert len(tracer.select("run_end")) == 2

    post = post_graph(pre, ops)
    fresh = GrapeEngine(build_fragments(post, assignment, parts, store=store))
    full = fresh.run(make_program(), query)
    assert canonical_answer_bytes(second.answer) == canonical_answer_bytes(
        full.answer
    ), (second.repair.as_dict(), ops)
    assert_sequential(name, second.answer, post, query, ops)


def _path_case(directed, op):
    """Hand-written scenario: the unit path 0-...-7 dealt round-robin
    over 3 parts, and one op."""
    pre = path_graph(8, directed)
    return pre, {v: v % 3 for v in range(8)}, 3, [op], 0.5


@SLOW
@given(delta_scenario(), STORES, st.booleans())
@example(_path_case(False, ("insert", 7, 0, 1.0)), "dict", False)  # 0 -> 7
def test_sssp_mixed_delta_equals_recompute(case, store, traced):
    _repaired_equals_recompute(
        "sssp", SSSPProgram, SSSPQuery(source=0), case, store, traced
    )


@SLOW
@given(
    delta_scenario(), st.sampled_from([None, 1, 2, 3]), STORES, st.booleans()
)
@example(_path_case(False, ("insert", 7, 0, 1.0)), None, "dict", False)
@example(_path_case(True, ("insert", 2, 7, 1.0)), 2, "dict", False)  # 3 hops
def test_bfs_mixed_delta_equals_recompute(case, max_depth, store, traced):
    _repaired_equals_recompute(
        "bfs", BFSProgram, BFSQuery(source=0, max_depth=max_depth), case,
        store, traced,
    )


@SLOW
@given(delta_scenario(), STORES, st.booleans())
def test_cc_mixed_delta_equals_recompute(case, store, traced):
    _repaired_equals_recompute("cc", CCProgram, CCQuery(), case, store, traced)


@SLOW
@given(delta_scenario(symmetric=True), STORES, st.booleans())
def test_kcore_mixed_delta_equals_recompute(case, store, traced):
    _repaired_equals_recompute(
        "kcore", KCoreProgram, KCoreQuery(), case, store, traced
    )
