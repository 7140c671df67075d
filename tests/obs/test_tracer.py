"""Unit tests for the Tracer event log and the virtual timeline."""

import re

import pytest

from repro.core.checkpoint import CheckpointPolicy
from repro.engineapi.chaos import standard_plans
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.graph.generators import graph_from_spec
from repro.obs import (
    COMPUTE_COST,
    Tracer,
    build_timeline,
    chrome_trace,
    dump_chrome_trace,
)
from repro.runtime.costmodel import CostModel
from repro.service.fleet import default_chaos_plan
from repro.service.trace import load_trace, replay_trace
from repro.storage.dfs import SimulatedDFS
from tests.obs.test_chrome_golden import SERVE_TRACE
from tests.service.test_trace import TRACE

COST = CostModel()


def _compute(tracer: Tracer, worker: int, **fields) -> None:
    tracer.event(
        "compute_end", worker=worker,
        **{"ok": True, "straggler_delay": 0.0, **fields},
    )


def _fake_run(tracer: Tracer) -> None:
    """Two supersteps: peval (two workers) and assemble (coordinator)."""
    tracer.run_begin("grape[demo]", 2)
    tracer.step_begin(0, "peval")
    for w in (0, 1):
        _compute(tracer, w)
    tracer.step_end(
        0, "peval", bytes_sent=120, messages=2, pairs=2,
        sends={0: [1, 60], 1: [1, 60]}, faults=0, retries=0,
    )
    tracer.step_begin(1, "assemble")
    _compute(tracer, -1)
    tracer.step_end(
        1, "assemble", bytes_sent=0, messages=0, pairs=0,
        sends={}, faults=0, retries=0,
    )
    tracer.run_end(None)


def test_events_are_flat_dicts_in_emission_order():
    tracer = Tracer()
    _fake_run(tracer)
    kinds = [ev["kind"] for ev in tracer]
    assert kinds[0] == "run_begin"
    assert kinds[-1] == "run_end"
    assert kinds.count("step_begin") == kinds.count("step_end") == 2
    assert len(tracer) == len(tracer.events)


def test_select_filters_by_kind():
    tracer = Tracer()
    _fake_run(tracer)
    computes = tracer.select("compute_end", "step_end")
    assert [ev["kind"] for ev in computes] == [
        "compute_end", "compute_end", "step_end", "compute_end", "step_end",
    ]


def test_event_stamps_the_open_run_and_step():
    tracer = Tracer()
    tracer.event("svc_reject", query_class="sssp", clock=0.0)
    tracer.run_begin("grape[x]", 2)
    tracer.event("recovery", step=4, worker=1)
    tracer.step_begin(3, "inceval")
    _compute(tracer, 1, ok=False)
    tracer.event("retry", phase="peval", worker=1, attempt=1, backoff=0.1)
    tracer.step_abort(3, "inceval")
    tracer.run_end(None)
    tracer.event("svc_reject", query_class="cc", clock=1.0)
    reject, _, recovery, _, compute, retry, _, _, late = tracer.events
    # Outside a run nothing is stamped; inside one, the run and any
    # open step are, and an explicit field wins over its stamp.
    assert reject == {
        "kind": "svc_reject", "query_class": "sssp", "clock": 0.0,
    }
    assert recovery == {"kind": "recovery", "run": 0, "step": 4, "worker": 1}
    assert compute == {
        "kind": "compute_end", "run": 0, "step": 3, "phase": "inceval",
        "worker": 1, "ok": False, "straggler_delay": 0.0,
    }
    assert (retry["step"], retry["phase"]) == (3, "peval")
    assert "run" not in late


def test_public_surface_is_the_lifecycle_plus_event():
    public = {name for name in vars(Tracer) if not name.startswith("_")}
    assert public == {
        "run_begin", "run_end", "step_begin", "step_end", "step_abort",
        "event", "select",
    }


def test_run_ids_are_stable_and_never_nest():
    tracer = Tracer()
    assert tracer.run_begin("a", 1) == 0
    # A second run_begin auto-closes the first (escaped exception).
    assert tracer.run_begin("b", 1) == 1
    ends = tracer.select("run_end")
    assert len(ends) == 1 and ends[0]["run"] == 0
    tracer.run_end(None)
    assert [ev["run"] for ev in tracer.select("run_begin")] == [0, 1]


def test_timeline_places_lanes_and_barriers():
    tracer = Tracer()
    _fake_run(tracer)
    runs = build_timeline(tracer.events)
    assert len(runs) == 1
    run = runs[0]
    assert run.engine == "grape[demo]"
    assert [s.phase for s in run.steps] == ["peval", "assemble"]

    peval = run.steps[0]
    # Each worker lane: one compute attempt + its ship span.
    lane = COMPUTE_COST + COST.network_time(60, 0)
    assert peval.lane_max == lane
    assert peval.network == COST.network_time(120, 2)
    assert peval.duration == COST.superstep_time(COMPUTE_COST, 120, 2)
    assert peval.worker_totals == {0: lane, 1: lane}

    assemble = run.steps[1]
    assert assemble.start == peval.end
    assert assemble.worker_totals == {-1: pytest.approx(COMPUTE_COST)}
    assert run.duration == pytest.approx(peval.duration + assemble.duration)
    assert run.worker_totals()[-1] == pytest.approx(COMPUTE_COST)


def test_straggler_delay_and_backoff_stretch_the_lane():
    tracer = Tracer()
    tracer.run_begin("grape[x]", 1)
    tracer.step_begin(0, "inceval")
    _compute(tracer, 0, ok=False)
    tracer.event("retry", worker=0, attempt=1, backoff=0.05)
    _compute(tracer, 0, straggler_delay=0.02)
    tracer.step_end(
        0, "inceval", bytes_sent=0, messages=0, pairs=0,
        sends={}, faults=1, retries=1,
    )
    tracer.run_end(None)
    step = build_timeline(tracer.events)[0].steps[0]
    assert step.retries == 1
    # Lane: failed attempt, backoff span, successful delayed attempt.
    assert step.lane_max == COMPUTE_COST + 0.05 + (COMPUTE_COST + 0.02)
    names = [s.name for s in step.spans]
    assert names == ["inceval", "backoff", "inceval"]
    assert step.spans[1].cat == "chaos"


def test_aborted_superstep_charges_no_network():
    tracer = Tracer()
    tracer.run_begin("grape[x]", 2)
    tracer.step_begin(0, "inceval")
    _compute(tracer, 0, ok=False)
    tracer.step_abort(0, "inceval")
    tracer.run_end(None)
    run = build_timeline(tracer.events)[0]
    assert len(run.steps) == 1
    step = run.steps[0]
    assert step.aborted
    assert step.network == 0.0
    assert step.duration == COST.superstep_time(COMPUTE_COST, 0, 0)


def test_open_run_and_step_are_closed_at_log_end():
    tracer = Tracer()
    tracer.run_begin("grape[x]", 1)
    tracer.step_begin(0, "peval")
    _compute(tracer, 0, ok=False)
    # Fatal failure escaped: neither step_end nor run_end arrives.
    runs = build_timeline(tracer.events)
    assert len(runs) == 1
    assert runs[0].steps[0].aborted
    assert runs[0].summary is None


def test_recovery_events_attach_to_their_run():
    tracer = Tracer()
    tracer.run_begin("grape[x]", 2)
    tracer.event(
        "recovery", step=4, worker=1, resumed_round=2, rounds_lost=3
    )
    tracer.run_end(None)
    run = build_timeline(tracer.events)[0]
    assert len(run.recoveries) == 1
    assert run.recoveries[0]["rounds_lost"] == 3


def test_service_events_are_split_out():
    tracer = Tracer()
    tracer.event("svc_reject", query_class="sssp", clock=0.0)
    _fake_run(tracer)
    tracer.event(
        "svc_query", seq=0, query_class="sssp", lane=0, submit=0.0,
        start=0.0, finish=0.01, from_cache=False, cost=0.01, version=1,
    )
    # Engine timeline ignores the service events entirely; the export
    # places them in the service process (pid 0).
    assert len(build_timeline(tracer.events)) == 1
    service = [
        ev["cat"] for ev in chrome_trace(tracer)["traceEvents"]
        if ev["pid"] == 0 and ev["ph"] != "M"
    ]
    assert service == [
        "service.reject", "service.queue", "service.queue", "service.lane",
    ]


def _traced_sets(tmp_path) -> dict[str, Tracer]:
    """SSSP under three fault plans and relaxed, a serve replay, a fleet."""
    sets: dict[str, Tracer] = {}

    def sssp(name, **run_kwargs):
        tracer = sets[name] = Tracer()
        session = Session(
            graph_from_spec("road:8x8"), num_workers=4, tracer=tracer,
            mode="relaxed" if name == "relaxed" else "strict",
        )
        session.run(
            get_program("sssp"), build_query("sssp", source=0), **run_kwargs
        )

    plans = standard_plans(7)
    sssp(
        "crash-fatal", faults=plans["crash-fatal"],
        checkpoint=CheckpointPolicy(SimulatedDFS(tmp_path), every=1),
    )
    for name in ("crash-transient", "straggler"):
        sssp(name, faults=plans[name])
    sssp("relaxed")
    sets["serve"] = Tracer()
    replay_trace(SERVE_TRACE, tracer=sets["serve"])
    sets["fleet"] = Tracer()
    replay_trace(
        load_trace(str(TRACE)), replicas=3,
        faults=default_chaos_plan(7, 0.3), tracer=sets["fleet"],
    )
    return sets


def _export_sans_count(events: list[dict]) -> str:
    tracer = Tracer()
    tracer.events = events
    return re.sub(r'"obs\.events": \d+', "", dump_chrome_trace(tracer))


def test_every_recorded_kind_reaches_an_export(tmp_path):
    """A kind no exporter reads is dead weight: dropping its events
    must change the export in more than the event count."""
    silent = []
    for name, tracer in _traced_sets(tmp_path).items():
        full = _export_sans_count(tracer.events)
        for kind in sorted({ev["kind"] for ev in tracer.events}):
            rest = [ev for ev in tracer.events if ev["kind"] != kind]
            if _export_sans_count(rest) == full:
                silent.append((name, kind))
    assert silent == []
