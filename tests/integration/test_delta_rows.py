"""One ΔG row grammar at every entry point.

A row is ``[src, dst, weight?, label?]`` for an insert, ``[src, dst]``
for a delete and ``[src, dst, weight]`` for a reweight. Tuples handed to
``run_incremental``, the JSON of ``grape run --updates`` and of a serve
trace, and the three sequences of ``GrapeService.apply_updates`` and
``FleetRouter.apply_updates`` are all read by the same parser, so each
malformed row below is a ``ProgramError`` everywhere and changes
nothing. The master graph applies the ops as the fragments routed them.
"""

import json
import pickle

import pytest

from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.engineapi.cli import main
from repro.engineapi.session import Session
from repro.errors import ProgramError
from repro.graph.digraph import Graph
from repro.graph.generators import graph_from_spec
from repro.service import GrapeService
from repro.service.fleet import FleetRouter

SPEC = "road:4x4"  # (1, 2) is an edge, (0, 5) is not

#: (section, row) pairs every entry point must refuse.
MALFORMED = [
    pytest.param("insert", (0,), id="insert-one-column"),
    pytest.param("insert", (0, 5, "heavy"), id="insert-text-weight"),
    pytest.param("insert", (0, 5, True), id="insert-bool-weight"),
    pytest.param("insert", (0, 5, 1.0, "road", "junk"), id="insert-5-cols"),
    pytest.param("insert", (0, 5, 1.0, 7), id="insert-number-label"),
    pytest.param("delete", (1,), id="delete-one-column"),
    pytest.param("delete", (1, 2, 2.0), id="delete-with-weight"),
    pytest.param("reweight", (1, 2), id="reweight-no-weight"),
    pytest.param("reweight", (1, 2, "x"), id="reweight-text-weight"),
    pytest.param("reweight", (1, 2, None), id="reweight-null-weight"),
    pytest.param("reweight", (1, 2, 2.0, "lab"), id="reweight-4-cols"),
]

#: ``apply_updates`` keyword per JSON section.
KWARG = {"insert": "edges", "delete": "deletes", "reweight": "reweights"}


def _tuple_forms(section, row):
    """The tuple forms ``run_incremental`` reads: tagged, and untagged
    for an insert."""
    forms = [(section, *row)]
    if section == "insert":
        forms.append(row)
    return forms


@pytest.mark.parametrize("section,row", MALFORMED)
def test_run_incremental_refuses_the_row(section, row):
    session = Session(graph_from_spec(SPEC), num_workers=2)
    cold = session.run(SSSPProgram(), SSSPQuery(source=0), keep_state=True)
    before = pickle.dumps(session.fragmented.fragments)
    for form in _tuple_forms(section, row):
        with pytest.raises(ProgramError, match="row"):
            session.engine().run_incremental(
                SSSPProgram(), SSSPQuery(source=0), cold.state, [form]
            )
        assert pickle.dumps(session.fragmented.fragments) == before


@pytest.mark.parametrize("section,row", MALFORMED)
def test_cli_refuses_the_row(section, row, capsys, tmp_path):
    updates = tmp_path / "updates.json"
    updates.write_text(json.dumps({section: [list(row)]}))
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({
        "graph": SPEC, "workers": 2,
        "ops": [{"op": "update", KWARG[section]: [list(row)]}],
    }))
    for argv in (
        ["run", "--graph", SPEC, "--query", "sssp", "--source", "0",
         "--updates", str(updates)],
        ["serve", "--trace", str(trace)],
        ["serve", "--trace", str(trace), "--replicas", "3"],
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.err.startswith("error: ") and "row" in captured.err
        assert "Traceback" not in captured.err
        assert "delta repair:" not in captured.out


def _service_snapshot(service):
    return (
        pickle.dumps(service.session.fragmented.fragments),
        pickle.dumps(service.session.graph),
        service.version,
        service.queue_depth,
        service.report().to_json(),
    )


@pytest.mark.parametrize("section,row", MALFORMED)
def test_service_refuses_the_row(section, row):
    service = GrapeService(Session(graph_from_spec(SPEC), num_workers=2))
    service.register_standing("near", "sssp", {"source": 0})
    service.submit("cc", {})
    before = _service_snapshot(service)
    with pytest.raises(ProgramError, match="row"):
        service.apply_updates(**{KWARG[section]: [row]})
    assert _service_snapshot(service) == before


@pytest.mark.parametrize("section,row", MALFORMED)
def test_fleet_refuses_the_row(section, row):
    fleet = FleetRouter({"graph": SPEC, "workers": 2}, replicas=2)

    def snapshot():
        return (
            fleet.version,
            list(fleet._journal),
            pickle.dumps(fleet._head.fragments),
            [_service_snapshot(r.service) for r in fleet.replicas],
        )

    before = snapshot()
    with pytest.raises(ProgramError, match="row"):
        fleet.apply_updates(**{KWARG[section]: [row]})
    assert snapshot() == before


def test_insert_of_an_existing_edge_keeps_its_label_everywhere():
    """The insert is routed as a reweight: the fragments keep the edge's
    label, and so do the master graph and a repartition built from it."""
    graph = Graph()
    for v in range(4):
        graph.add_vertex(v)
    for v in range(3):
        graph.add_edge(v, v + 1, 1.0, "follow")
    session = Session(graph, num_workers=2)
    service = GrapeService(session)
    service.apply_updates(edges=[(0, 1, 2.0, "buy")])
    assert (graph.edge_weight(0, 1), graph.edge_label(0, 1)) == (
        2.0, "follow",
    )
    for fragmented in (session.fragmented, session.repartition("hash", 3)):
        copies = [
            (f.graph.edge_weight(0, 1), f.graph.edge_label(0, 1))
            for f in fragmented.fragments
            if f.graph.has_edge(0, 1)
        ]
        assert copies == [(2.0, "follow")]
