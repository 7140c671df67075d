"""Unit tests for the Tracer event log and the virtual timeline."""

import pytest

from repro.obs import (
    COMPUTE_COST,
    Tracer,
    build_timeline,
    service_events,
)
from repro.runtime.costmodel import CostModel

COST = CostModel()


def _fake_run(tracer: Tracer) -> None:
    """Two supersteps: peval (two workers) and assemble (coordinator)."""
    tracer.run_begin("grape[demo]", 2)
    tracer.step_begin(0, "peval")
    for w in (0, 1):
        tracer.compute_begin(w)
        tracer.compute_end(w)
    tracer.step_end(
        0, "peval", bytes_sent=120, messages=2, pairs=2,
        sends={0: [1, 60], 1: [1, 60]}, faults=0, retries=0,
    )
    tracer.step_begin(1, "assemble")
    tracer.compute_begin(-1)
    tracer.compute_end(-1)
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
    computes = tracer.select("compute_begin", "compute_end")
    assert len(computes) == 6
    assert all(ev["kind"].startswith("compute") for ev in computes)


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
    tracer.compute_begin(0)
    tracer.compute_end(0, ok=False)
    tracer.retry(0, 0, "inceval", attempt=1, backoff=0.05)
    tracer.compute_begin(0)
    tracer.compute_end(0, straggler_delay=0.02)
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
    tracer.compute_begin(0)
    tracer.compute_end(0, ok=False)
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
    tracer.compute_begin(0)
    # Fatal failure escaped: neither step_end nor run_end arrives.
    runs = build_timeline(tracer.events)
    assert len(runs) == 1
    assert runs[0].steps[0].aborted
    assert runs[0].summary is None


def test_recovery_events_attach_to_their_run():
    tracer = Tracer()
    tracer.run_begin("grape[x]", 2)
    tracer.recovery(1, 4, resumed_round=2, rounds_lost=3)
    tracer.run_end(None)
    run = build_timeline(tracer.events)[0]
    assert len(run.recoveries) == 1
    assert run.recoveries[0]["rounds_lost"] == 3


def test_service_events_are_split_out():
    tracer = Tracer()
    tracer.svc_submit(0, "sssp", clock=0.0, cacheable=True, priority=5)
    _fake_run(tracer)
    tracer.svc_query(
        0, "sssp", lane=0, submit=0.0, start=0.0, finish=0.01,
        from_cache=False, cost=0.01, version=1,
    )
    svc = service_events(tracer.events)
    assert [ev["kind"] for ev in svc] == ["svc_submit", "svc_query"]
    # Engine timeline ignores the service events entirely.
    assert len(build_timeline(tracer.events)) == 1
