"""Unit tests for the simulated MPI controller and the cost model."""

import pytest

from repro.errors import EngineRuntimeError
from repro.runtime import costmodel
from repro.runtime.costmodel import CostModel
from repro.runtime.message import COORDINATOR, Message
from repro.runtime.mpi_sim import MPIController


# ------------------------------------------------------------ message
def test_message_make_computes_size():
    msg = Message.make(0, 1, {"a": 1})
    assert msg.size == 16 + 1 + 8


def test_coordinator_rank_constant():
    assert COORDINATOR == -1


# ---------------------------------------------------------------- mpi
def test_send_receive_after_flush():
    mpi = MPIController(2)
    mpi.send(0, 1, "hello")
    assert mpi.receive(1) == []  # not delivered before flush
    mpi.flush()
    (msg,) = mpi.receive(1)
    assert msg.payload == "hello"
    assert msg.src == 0


def test_receive_drains_inbox():
    mpi = MPIController(2)
    mpi.send(0, 1, "x")
    mpi.flush()
    assert len(mpi.receive(1)) == 1
    assert mpi.receive(1) == []


def test_flush_stats_cross_worker():
    mpi = MPIController(3)
    mpi.send(0, 1, 5)
    mpi.send(0, 2, 5)
    mpi.send(1, 2, 5)
    stats = mpi.flush()
    assert stats.messages_sent == 3
    assert stats.communicating_pairs == 3
    assert stats.bytes_sent == 3 * (16 + 8)


def test_self_send_counts_message_not_bytes():
    mpi = MPIController(2)
    mpi.send(0, 0, "local")
    stats = mpi.flush()
    assert stats.messages_sent == 1
    assert stats.bytes_sent == 0
    assert stats.communicating_pairs == 0


def test_coordinator_send_and_receive():
    mpi = MPIController(2)
    mpi.send(1, COORDINATOR, {"v": 1})
    mpi.flush()
    (msg,) = mpi.receive(COORDINATOR)
    assert msg.src == 1


def test_invalid_rank_rejected():
    mpi = MPIController(2)
    with pytest.raises(EngineRuntimeError):
        mpi.send(0, 5, "x")
    with pytest.raises(EngineRuntimeError):
        mpi.receive(-2)


def test_zero_workers_rejected():
    with pytest.raises(EngineRuntimeError):
        MPIController(0)


def test_pending_tracks_queued_and_undelivered():
    mpi = MPIController(2)
    assert not mpi.pending()
    mpi.send(0, 1, "x")
    assert mpi.pending()  # queued
    mpi.flush()
    assert mpi.pending()  # undelivered
    mpi.receive(1)
    assert not mpi.pending()


# ---------------------------------------------------------- cost model
def test_network_time_zero_when_silent():
    assert CostModel().network_time(0, 0) == 0.0


def test_network_time_latency_plus_bandwidth(monkeypatch):
    monkeypatch.setattr(costmodel, "BANDWIDTH", 1e6)
    cm = CostModel()
    assert cm.network_time(1000, 2) == pytest.approx(1e-3 + 1e-3)


def test_superstep_time_composition(monkeypatch):
    monkeypatch.setattr(costmodel, "LATENCY", 0.0)
    monkeypatch.setattr(costmodel, "BANDWIDTH", 1e6)
    monkeypatch.setattr(costmodel, "BARRIER_OVERHEAD", 0.5)
    t = CostModel().superstep_time(1.0, 1_000_000, 0)
    assert t == pytest.approx(1.0 + 1.0 + 0.5)
