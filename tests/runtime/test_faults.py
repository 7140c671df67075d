"""Tests for fault plans, the injector and transport integrity."""

import json

import pytest

from repro.engineapi.cli import main
from repro.errors import ProgramError, TransportError
from repro.runtime.faults import (
    CorruptFault,
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    StragglerFault,
    UpdateLagFault,
)
from repro.runtime.message import COORDINATOR
from repro.runtime.mpi_sim import MPIController


# ------------------------------------------------------------ plan specs
def test_crash_fault_needs_a_trigger():
    with pytest.raises(ProgramError, match="at_superstep"):
        CrashFault()


def test_probability_out_of_range_rejected():
    with pytest.raises(ProgramError, match="probability"):
        DropFault(probability=1.5)
    with pytest.raises(ProgramError, match="probability"):
        CrashFault(probability=-0.1)


def test_negative_straggler_delay_rejected():
    with pytest.raises(ProgramError, match="delay"):
        StragglerFault(at_superstep=1, delay=-1.0)


def test_plan_rejects_non_fault_entries():
    with pytest.raises(ProgramError, match="not a fault spec"):
        FaultPlan(faults=("drop",))


def test_plan_json_round_trip():
    plan = FaultPlan(
        faults=(
            CrashFault(worker=2, at_superstep=3, fatal=True),
            StragglerFault(at_superstep=1, delay=0.25, times=None),
            DropFault(src=0, dst=1, probability=0.5, times=4),
            DuplicateFault(probability=0.1),
            CorruptFault(dst=COORDINATOR),
            UpdateLagFault(worker=1, at_epoch=2, lag=3, times=None),
        ),
        seed=42,
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_update_lag_fault_validation():
    with pytest.raises(ProgramError, match="at_epoch"):
        UpdateLagFault()
    with pytest.raises(ProgramError, match="lag"):
        UpdateLagFault(at_epoch=0, lag=0)
    with pytest.raises(ProgramError, match="probability"):
        UpdateLagFault(probability=2.0)


def test_on_update_scopes_by_replica_and_epoch():
    plan = FaultPlan(
        faults=(UpdateLagFault(worker=1, at_epoch=2, lag=3, times=1),),
        seed=0,
    )
    injector = plan.injector()
    assert injector.on_update(0, 2) == 0  # wrong replica
    assert injector.on_update(1, 1) == 0  # before the epoch
    assert injector.on_update(1, 2) == 3  # fires: replica falls behind
    assert injector.on_update(1, 3) == 0  # times=1 budget spent
    assert injector.counters.update_lags_injected == 1


def test_on_update_probability_is_seed_deterministic():
    plan = FaultPlan(
        faults=(UpdateLagFault(probability=0.5, lag=2, times=None),),
        seed=9,
    )
    def schedule(injector):
        return [injector.on_update(w, e) for w in range(3)
                for e in range(4)]

    schedule_a = schedule(plan.injector())
    schedule_b = schedule(plan.injector())
    assert schedule_a == schedule_b
    assert any(lag == 2 for lag in schedule_a)  # fires sometimes
    assert any(lag == 0 for lag in schedule_a)  # but not always


def test_from_dict_rejects_junk():
    with pytest.raises(ProgramError, match="must be an object"):
        FaultPlan.from_dict([1, 2])
    with pytest.raises(ProgramError, match="kind"):
        FaultPlan.from_dict({"faults": [{"probability": 0.5}]})
    with pytest.raises(ProgramError, match="unknown fault kind"):
        FaultPlan.from_dict({"faults": [{"kind": "meteor"}]})
    with pytest.raises(ProgramError, match="bad 'drop'"):
        FaultPlan.from_dict({"faults": [{"kind": "drop", "sroc": 1}]})


def test_injector_draws_are_a_pure_function_of_seed():
    plan = FaultPlan(
        faults=(DropFault(probability=0.5, times=None),), seed=9
    )

    def schedule(injector, n=60):
        mpi = MPIController(2, injector=injector, max_attempts=10 ** 6)
        out = []
        for i in range(n):
            mpi.send(0, 1, {"i": i})
            mpi.flush()
            out.append(len(mpi.receive(1)))
        return out

    first = schedule(plan.injector())
    assert first != [1] * 60  # some drops actually happened
    assert schedule(plan.injector()) == first


# ------------------------------------------------- transport integrity
def test_drop_is_retransmitted_exactly_once():
    plan = FaultPlan(faults=(DropFault(times=1),), seed=0)
    injector = plan.injector()
    mpi = MPIController(2, injector=injector)
    mpi.send(0, 1, {"v": 1})
    mpi.flush()
    assert mpi.receive(1) == []  # dropped on first flush
    assert mpi.pending()  # but retained by the sender
    mpi.flush()
    delivered = mpi.receive(1)
    assert [m.payload for m in delivered] == [{"v": 1}]
    assert not mpi.pending()
    assert injector.counters.drops_injected == 1
    assert injector.counters.retransmissions == 1


def test_duplicate_is_applied_exactly_once():
    plan = FaultPlan(faults=(DuplicateFault(times=1),), seed=0)
    injector = plan.injector()
    mpi = MPIController(2, injector=injector)
    mpi.send(0, 1, {"v": 2})
    mpi.flush()
    assert [m.payload for m in mpi.receive(1)] == [{"v": 2}]
    assert injector.counters.duplicates_injected == 1
    assert injector.counters.duplicates_discarded == 1


def test_corruption_is_detected_never_applied():
    plan = FaultPlan(faults=(CorruptFault(times=1),), seed=0)
    injector = plan.injector()
    mpi = MPIController(2, injector=injector)
    mpi.send(0, 1, {"v": 3})
    mpi.flush()
    assert mpi.receive(1) == []  # tampered copy discarded
    assert injector.counters.corruptions_detected == 1
    mpi.flush()  # retransmission is clean
    assert [m.payload for m in mpi.receive(1)] == [{"v": 3}]


def test_persistent_drop_raises_transport_error():
    plan = FaultPlan(faults=(DropFault(times=None),), seed=0)
    mpi = MPIController(2, injector=plan.injector(), max_attempts=5)
    mpi.send(0, 1, {"v": 4})
    for _ in range(5):
        mpi.flush()
    with pytest.raises(TransportError, match="undeliverable after 5"):
        mpi.flush()


def test_plain_path_has_no_integrity_overhead():
    mpi = MPIController(2)
    msg = mpi.send(0, 1, {"v": 5})
    assert msg.seq is None
    assert msg.checksum is None
    mpi.flush()
    assert [m.payload for m in mpi.receive(1)] == [{"v": 5}]


def test_reset_in_flight_preserves_seq_and_dedup_state():
    plan = FaultPlan(seed=0)
    mpi = MPIController(2, injector=plan.injector())
    mpi.send(0, 1, "a")
    mpi.flush()
    mpi.receive(1)
    mpi.send(0, 1, "in-flight")
    mpi.reset_in_flight()
    assert not mpi.pending()
    msg = mpi.send(0, 1, "post-recovery")
    assert msg.seq == 2  # counter not rewound: no seq collision possible
    mpi.flush()
    assert [m.payload for m in mpi.receive(1)] == ["post-recovery"]


MALFORMED_PLANS = [
    pytest.param({"seed": "x"}, "seed", id="seed-not-int"),
    pytest.param({"faults": 3}, "'faults' must be a list", id="faults-not-list"),
    pytest.param(
        {"faults": [{"kind": "crash", "at_superstep": "x"}]},
        "'at_superstep'", id="at-superstep-str",
    ),
    pytest.param(
        {"faults": [{"kind": "crash", "at_superstep": -1}]},
        "at_superstep must be >= 0", id="at-superstep-negative",
    ),
    pytest.param(
        {"faults": [{"kind": "crash", "at_superstep": 1, "fatal": "yes"}]},
        "'fatal'", id="fatal-str",
    ),
    pytest.param(
        {"faults": [{"kind": "crash", "at_superstep": 1, "worker": "0"}]},
        "'worker'", id="worker-str",
    ),
    pytest.param(
        {"faults": [{"kind": "drop", "times": "many"}]},
        "'times'", id="times-str",
    ),
    pytest.param(
        {"faults": [{"kind": "drop", "times": -1}]},
        "times must be >= 1", id="times-negative",
    ),
    pytest.param(
        {"faults": [{"kind": "update_lag", "at_epoch": "x"}]},
        "'at_epoch'", id="at-epoch-str",
    ),
]


@pytest.mark.parametrize("data,named", MALFORMED_PLANS)
def test_cli_malformed_plan_is_a_typed_error(data, named, capsys, tmp_path):
    """A plan is outside input (``grape chaos --plan FILE``): a wrongly
    typed field is refused up front, never a traceback from inside the
    injector and never a plan that silently injects nothing."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(data))
    rc = main([
        "chaos", "--graph", "road:4x4", "--query", "sssp", "--source", "0",
        "--plan", str(plan),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err
