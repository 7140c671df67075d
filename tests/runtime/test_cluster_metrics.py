"""Unit tests for the Cluster superstep protocol and run metrics."""

import time

import pytest

from repro.runtime.cluster import Cluster
from repro.runtime.costmodel import CostModel
from repro.runtime.message import COORDINATOR
from repro.runtime.metrics import RunMetrics, SuperstepMetrics


def test_superstep_records_metrics():
    cluster = Cluster(2, engine_name="t")
    with cluster.superstep("peval") as step:
        with step.compute(0):
            time.sleep(0.001)
        step.send(0, 1, "x")
    assert cluster.metrics.num_supersteps == 1
    s = cluster.metrics.supersteps[0]
    assert s.phase == "peval"
    assert s.compute_makespan >= 0.001
    assert s.messages_sent == 1
    assert s.bytes_sent > 0


def test_makespan_is_max_not_sum():
    cluster = Cluster(2)
    with cluster.superstep("x") as step:
        step.charge(0, 1.0)
        step.charge(1, 3.0)
    s = cluster.metrics.supersteps[0]
    assert s.compute_makespan == pytest.approx(3.0)
    assert s.compute_total == pytest.approx(4.0)


def test_coordinator_time_serializes_with_makespan():
    cluster = Cluster(2)
    with cluster.superstep("x") as step:
        step.charge(0, 1.0)
        step.charge(COORDINATOR, 0.5)
    assert cluster.metrics.supersteps[0].compute_makespan == pytest.approx(1.5)


def test_mid_superstep_deliver_counts_once():
    cluster = Cluster(2)
    with cluster.superstep("x") as step:
        step.send(0, 1, "a")
        step.deliver()
        (msg,) = cluster.receive(1)
        assert msg.payload == "a"
        step.send(1, 0, "b")
    s = cluster.metrics.supersteps[0]
    assert s.messages_sent == 2


def test_worker_compute_charged_cumulatively():
    cluster = Cluster(2)
    with cluster.superstep("a") as step:
        step.charge(0, 1.0)
    with cluster.superstep("b") as step:
        step.charge(0, 2.0)
        step.charge(1, 1.0)
    assert cluster.metrics.worker_compute[0] == pytest.approx(3.0)
    assert cluster.metrics.load_imbalance() == pytest.approx(3.0 / 2.0)


def test_simulated_time_uses_cost_model():
    cm = CostModel(latency=0.0, bandwidth=1e9, barrier_overhead=1.0)
    cluster = Cluster(1, cost_model=cm)
    with cluster.superstep("x"):
        pass
    assert cluster.metrics.total_time == pytest.approx(1.0)


# --------------------------------------------------------- run metrics
def _metrics_with(phases):
    m = RunMetrics(engine="e", num_workers=2)
    for i, (phase, t, b, msg) in enumerate(phases):
        m.add_superstep(
            SuperstepMetrics(
                index=i, phase=phase, simulated_time=t,
                bytes_sent=b, messages_sent=msg,
            )
        )
    return m


def test_phase_breakdown_and_totals():
    m = _metrics_with(
        [("peval", 1.0, 100, 2), ("inceval", 0.5, 50, 1),
         ("inceval", 0.25, 50, 1)]
    )
    assert m.total_time == pytest.approx(1.75)
    assert m.total_bytes == 200
    assert m.total_messages == 4
    assert m.phase_time("inceval") == pytest.approx(0.75)
    assert m.phase_breakdown() == {
        "peval": pytest.approx(1.0), "inceval": pytest.approx(0.75)
    }


def test_communication_mb():
    m = _metrics_with([("p", 0.0, 2_000_000, 1)])
    assert m.communication_mb == pytest.approx(2.0)


def test_load_imbalance_defaults():
    assert RunMetrics().load_imbalance() == 1.0


def test_summary_format():
    m = _metrics_with([("p", 1.0, 1_000_000, 3)])
    text = m.summary()
    assert "supersteps=1" in text
    assert "msgs=3" in text
