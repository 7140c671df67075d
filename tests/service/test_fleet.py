"""FleetRouter behavior: routing, failover, breakers, hedging,
degradation, recovery and report determinism."""

import gc
import tempfile

import pytest

from repro.errors import ProgramError, ServiceError
from repro.graph.generators import graph_from_spec
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    StragglerFault,
    UpdateLagFault,
)
from repro.service import canonical_answer_bytes
from repro.service.fleet import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    FleetRouter,
    default_chaos_plan,
)

GRAPH = "road:4x4"


def _fleet(**kwargs):
    kwargs.setdefault("replicas", 3)
    kwargs.setdefault("num_workers", 2)
    return FleetRouter(lambda: graph_from_spec(GRAPH), **kwargs)


# ------------------------------------------------------------ fault-free path
def test_round_robin_rotates_fresh_replicas():
    fleet = _fleet()
    served_by = [
        fleet.query("sssp", {"source": 0}).replica for _ in range(6)
    ]
    assert served_by == [0, 1, 2, 0, 1, 2]


def test_fault_free_run_is_all_fresh():
    fleet = _fleet()
    results = [fleet.query("sssp", {"source": i}) for i in range(4)]
    assert all(r.outcome == "fresh" and not r.stale for r in results)
    report = fleet.report()
    assert report.availability == 1.0
    assert report.survived
    assert report.failovers == report.hedges == report.recoveries == 0
    assert fleet.fault_counters is None


def test_replicas_answer_byte_identically():
    fleet = _fleet()
    answers = {
        canonical_answer_bytes(fleet.query("sssp", {"source": 0}).answer)
        for _ in range(3)  # one full rotation
    }
    assert len(answers) == 1


def test_default_checkpoint_dir_is_removed_with_the_router(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    fleet = _fleet()
    fleet.apply_updates(edges=[(0, 5, 0.5)])  # checkpoints land on disk
    (made,) = tmp_path.glob("grape-fleet-*")
    assert any(made.rglob("*"))
    del fleet
    gc.collect()
    assert not list(tmp_path.iterdir())


def test_constructor_validation():
    with pytest.raises(ServiceError, match=">= 1 replica"):
        _fleet(replicas=0)
    with pytest.raises(ServiceError, match="retry budget"):
        _fleet(retry_budget=-1)


# ------------------------------------------------------------ failover
def test_transient_failure_fails_over_to_next_replica():
    plan = FaultPlan(
        faults=(CrashFault(worker=0, at_superstep=0, times=1),), seed=1
    )
    fleet = _fleet(faults=plan)
    result = fleet.query("sssp", {"source": 0})
    assert result.outcome == "fresh"
    assert result.replica == 1  # replica 0 failed, 1 took over
    assert result.attempts == 2
    report = fleet.report()
    assert report.failovers == 1
    assert report.retry_budget_left == fleet.retry_budget
    assert fleet.replicas[0].consecutive_failures == 1


def test_backoff_is_capped_exponential_and_charged():
    plan = FaultPlan(
        faults=(CrashFault(worker=0, at_superstep=0, times=1),), seed=1
    )
    fleet = _fleet(faults=plan, backoff_base=0.005, backoff_cap=0.006)
    assert fleet._backoff(1) == pytest.approx(0.005)
    assert fleet._backoff(2) == pytest.approx(0.006)  # capped
    assert fleet._backoff(10) == pytest.approx(0.006)
    result = fleet.query("sssp", {"source": 0})
    assert result.latency >= 0.005  # the retry's backoff is in the bill


def test_exhausted_retry_budget_still_answers():
    plan = FaultPlan(
        faults=(CrashFault(worker=0, at_superstep=0, times=1),), seed=1
    )
    fleet = _fleet(faults=plan, retry_budget=0)
    result = fleet.query("sssp", {"source": 0})
    # No budget to fail over on the fresh path, but the degradation
    # chain still finds a live replica — the query is answered.
    assert result.outcome == "fresh"
    assert fleet.report().failovers == 0


# ------------------------------------------------------------ circuit breaker
def test_breaker_opens_after_threshold_and_recloses():
    plan = FaultPlan(
        faults=(CrashFault(worker=0, probability=1.0, times=2),), seed=1
    )
    fleet = _fleet(
        faults=plan, breaker_threshold=2, breaker_cooldown=0.0
    )
    replica0 = fleet.replicas[0]
    fleet.query("sssp", {"source": 0})  # replica 0 fails once
    assert replica0.breaker_state == BREAKER_CLOSED
    fleet.query("sssp", {"source": 1})  # replica 2's turn: no failure
    fleet.query("sssp", {"source": 2})  # replica 0 fails again -> open
    assert fleet.report().breaker_trips == 1
    # Cooldown 0: the next pick admits a half-open probe; the fault
    # budget is spent, so the probe succeeds and the breaker recloses.
    while replica0.breaker_state != BREAKER_CLOSED:
        fleet.query("sssp", {"source": 3})
    assert replica0.consecutive_failures == 0
    assert fleet.report().survived


def test_open_breaker_leaves_rotation_until_cooldown():
    plan = FaultPlan(
        faults=(CrashFault(worker=0, probability=1.0, times=3),), seed=1
    )
    fleet = _fleet(
        faults=plan, breaker_threshold=1, breaker_cooldown=1e9
    )
    fleet.query("sssp", {"source": 0})  # trips replica 0's breaker
    assert fleet.replicas[0].breaker_state == BREAKER_OPEN
    served_by = [
        fleet.query("sssp", {"source": 1}).replica for _ in range(4)
    ]
    assert 0 not in served_by  # cooldown far in the future


# ------------------------------------------------------------ hedging
def test_straggler_triggers_hedge_and_fast_copy_wins():
    plan = FaultPlan(
        faults=(
            StragglerFault(worker=0, at_superstep=0, delay=1.0, times=1),
        ),
        seed=1,
    )
    fleet = _fleet(faults=plan, hedge_threshold=0.02)
    result = fleet.query("sssp", {"source": 0})
    assert result.hedged
    assert result.replica == 1  # the un-delayed copy won
    assert result.outcome == "fresh"
    report = fleet.report()
    assert report.hedges == 1
    assert report.hedge_wins == 1


def test_delay_under_threshold_is_not_hedged():
    plan = FaultPlan(
        faults=(
            StragglerFault(worker=0, at_superstep=0, delay=0.001, times=1),
        ),
        seed=1,
    )
    fleet = _fleet(faults=plan, hedge_threshold=0.02)
    result = fleet.query("sssp", {"source": 0})
    assert not result.hedged
    assert fleet.report().hedges == 0


# ------------------------------------------------------------ degradation
def test_deadline_miss_serves_stale_cache_with_staleness_bound():
    fleet = _fleet()
    fresh = fleet.query("sssp", {"source": 0})  # populates the store
    fleet.apply_updates(edges=[[0, 15, 0.01]])
    result = fleet.query("sssp", {"source": 0}, deadline=0.0)
    assert result.outcome == "stale_cache"
    assert result.stale
    assert result.staleness == 1  # one version behind
    assert result.version == 1
    assert result.replica == -1
    assert canonical_answer_bytes(result.answer) == canonical_answer_bytes(
        fresh.answer
    )
    report = fleet.report()
    assert report.stale_cache_served == 1
    assert report.deadline_misses >= 1
    assert report.survived  # degraded, never dropped


def test_store_hit_at_current_version_is_fresh():
    fleet = _fleet()
    fleet.query("sssp", {"source": 0})
    result = fleet.query("sssp", {"source": 0}, deadline=0.0)
    assert result.outcome == "fresh"  # graph unchanged: not stale
    assert not result.stale
    assert result.replica == -1


def test_lagging_replica_serves_stale_tagged_answer():
    plan = FaultPlan(
        faults=(UpdateLagFault(worker=0, at_epoch=0, lag=2, times=1),),
        seed=1,
    )
    fleet = _fleet(faults=plan)
    fleet.apply_updates(edges=[[0, 15, 0.01]])
    assert fleet.replicas[0].service.version == 1  # deferred the batch
    assert fleet.version == 2
    # Unseen query + zero deadline: fresh replicas miss, the laggard
    # answers at its own old version, tagged stale.
    result = fleet.query("sssp", {"source": 5}, deadline=0.0)
    assert result.outcome == "stale_replica"
    assert result.replica == 0
    assert result.staleness == 1
    assert fleet.report().stale_replica_served == 1


def test_lag_window_closes_via_journal_catch_up():
    plan = FaultPlan(
        faults=(UpdateLagFault(worker=0, at_epoch=0, lag=2, times=1),),
        seed=1,
    )
    fleet = _fleet(faults=plan)
    fleet.apply_updates(edges=[[0, 15, 0.01]])     # deferred (lag 2 -> 1)
    fleet.apply_updates(edges=[[1, 14, 0.02]])     # deferred (lag 1 -> 0)
    assert fleet.replicas[0].service.version == 1
    fleet.apply_updates(edges=[[2, 13, 0.03]])     # window over: catch up
    assert fleet.replicas[0].service.version == fleet.version == 4
    assert fleet.report().catchup_batches == 3
    # Caught up means fresh serving again.
    result = fleet.query("sssp", {"source": 0})
    assert result.outcome == "fresh"


def test_rejected_batch_is_not_journaled():
    """A batch every replica would refuse must not move the fleet
    version ahead of them: that tags every later answer stale, and
    catch-up replays the bad batch in front of the next good one."""
    fleet = FleetRouter(
        lambda: graph_from_spec("road:6x6"), replicas=3, num_workers=2
    )
    fleet.apply_updates(edges=[(0, 20, 0.5)])
    with pytest.raises(ProgramError):
        fleet.apply_updates(deletes=[(0, 999)])
    assert fleet.version == 2 and len(fleet._journal) == 1
    assert [r.service.version for r in fleet.replicas] == [2, 2, 2]
    assert fleet.query("sssp", {"source": 0}).outcome == "fresh"
    outcomes = fleet.apply_updates(edges=[(1, 21, 0.5)])
    assert sorted(outcomes) == [0, 1, 2]
    assert [r.service.version for r in fleet.replicas] == [3, 3, 3]
    assert fleet.version == 3
    assert fleet.report().stale_replica_served == 0


# ------------------------------------------------------------ crash + recovery
def test_fatal_crash_recovery_rejoins_after_audit():
    plan = FaultPlan(
        faults=(
            CrashFault(worker=0, at_superstep=0, fatal=True, times=1),
        ),
        seed=1,
    )
    fleet = _fleet(faults=plan)
    fleet.register_standing("comp", "cc", {})
    result = fleet.query("sssp", {"source": 0})
    assert result.outcome == "fresh"  # failover covered the crash
    assert fleet.replicas[0].dead
    # Updates journal while the replica is down.
    fleet.apply_updates(edges=[[0, 15, 0.01]])
    fleet.apply_updates(edges=[[1, 14, 0.02]])
    assert fleet.recover(0)
    replica0 = fleet.replicas[0]
    assert not replica0.dead
    assert replica0.service.version == fleet.version == 3
    report = fleet.report()
    assert report.recoveries == 1
    assert report.audits_failed == 0
    assert report.catchup_batches >= 2  # the missed journal suffix
    assert report.survived
    # The rejoined replica serves byte-identically to the others.
    rejoined = fleet.replicas[0].service.query("sssp", {"source": 0})
    healthy = fleet.replicas[1].service.query("sssp", {"source": 0})
    assert canonical_answer_bytes(rejoined.answer) == canonical_answer_bytes(
        healthy.answer
    )


def test_recover_is_a_noop_on_live_replicas():
    fleet = _fleet()
    assert fleet.recover(1)
    assert fleet.report().recoveries == 0


# ------------------------------------------------------------ standing queries
def test_standing_queries_survive_updates_and_crashes():
    plan = FaultPlan(
        faults=(
            CrashFault(worker=1, at_superstep=0, fatal=True, times=1),
        ),
        seed=1,
    )
    fleet = _fleet(faults=plan)
    cold = fleet.register_standing("comp", "cc", {})
    assert canonical_answer_bytes(fleet.standing_answer("comp")) == (
        canonical_answer_bytes(cold)
    )
    fleet.query("sssp", {"source": 0})  # replica 0 serves fine
    fleet.query("sssp", {"source": 1})  # replica 1 dies; failover
    assert fleet.replicas[1].dead
    fleet.apply_updates(edges=[[0, 15, 0.01]])
    assert fleet.recover(1)
    # The rejoined replica re-registered the standing query and its
    # maintained answer matches the fleet's.
    assert canonical_answer_bytes(
        fleet.replicas[1].service.standing_answer("comp")
    ) == canonical_answer_bytes(fleet.standing_answer("comp"))


# ------------------------------------------------------------ determinism
def test_chaos_report_and_answers_replay_byte_identically():
    def run():
        fleet = _fleet(
            faults=default_chaos_plan(11, 0.3), deadline=0.05
        )
        answers = []
        for i in range(8):
            answers.append(
                canonical_answer_bytes(
                    fleet.query("sssp", {"source": i % 4}).answer
                )
            )
            if i % 3 == 0:
                fleet.apply_updates(edges=[[i % 4, 15 - i % 4, 0.5 + i]])
        return answers, fleet.report().to_json()

    answers_a, report_a = run()
    answers_b, report_b = run()
    assert answers_a == answers_b
    assert report_a == report_b


def test_default_chaos_plan_rate_zero_is_empty():
    assert default_chaos_plan(7, 0.0).faults == ()
    plan = default_chaos_plan(7, 0.4)
    kinds = sorted(f.kind for f in plan.faults)
    assert kinds == ["crash", "crash", "straggler", "update_lag"]
    assert plan.seed == 7


def test_report_marks_version_behind_replica_as_lagging():
    plan = FaultPlan(
        faults=(UpdateLagFault(worker=2, at_epoch=0, lag=1, times=1),),
        seed=1,
    )
    fleet = _fleet(faults=plan)
    fleet.apply_updates(edges=[[0, 15, 0.01]])
    states = {r["replica"]: r for r in fleet.report().replica_states}
    # Replica 2's lag window (1 batch) is already over, but it has not
    # caught up yet — the fleet-level view must not call it healthy.
    assert states[2]["version"] == 1
    assert states[2]["health"] == "lagging"
    assert states[0]["health"] == states[1]["health"] == "healthy"
