"""Tests for superstep checkpointing and crash recovery."""

import pytest

from repro.algorithms.cc import CCProgram, CCQuery
from repro.algorithms.sssp import SSSPProgram, SSSPQuery
from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.core.checkpoint import CheckpointPolicy
from repro.core.engine import GrapeEngine
from repro.errors import StorageError
from repro.graph.fragment import build_fragments
from repro.graph.generators import road_network
from repro.partition.registry import get_partitioner
from repro.storage.dfs import SimulatedDFS


def _engine(graph, workers=4):
    assignment = get_partitioner("bfs")(graph, workers)
    return GrapeEngine(build_fragments(graph, assignment, workers, "bfs"))


class CrashingSSSP(SSSPProgram):
    """Raises on a chosen IncEval invocation (simulated worker death)."""

    def __init__(self, crash_at_call: int) -> None:
        super().__init__()
        self.crash_at_call = crash_at_call
        self.calls = 0

    def inceval(self, fragment, query, partial, params, changed):
        self.calls += 1
        if self.calls == self.crash_at_call:
            raise ConnectionError("simulated worker failure")
        return super().inceval(fragment, query, partial, params, changed)


def test_checkpoints_written_on_schedule(tmp_path):
    g = road_network(10, 10, seed=1, removal_prob=0.0)
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=2, tag="sssp")
    engine = _engine(g)
    result = engine.run(SSSPProgram(), SSSPQuery(source=0), checkpoint=policy)
    saved = policy.rounds_saved()
    assert saved  # enough rounds to hit the schedule
    assert all(r % 2 == 0 for r in saved)
    latest_round, state = policy.load_latest()
    assert latest_round == saved[-1]
    assert len(state.partials) == 4


def test_recovery_after_crash_matches_fresh_run(tmp_path):
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="crash")
    oracle = single_source(g, 0)

    engine = _engine(g)
    crashy = CrashingSSSP(crash_at_call=6)  # mid-fixpoint (9 calls total)
    with pytest.raises(ConnectionError):
        engine.run(crashy, SSSPQuery(source=0), checkpoint=policy)
    assert policy.rounds_saved()  # died after at least one checkpoint

    recovered = engine.resume_from_checkpoint(
        SSSPProgram(), SSSPQuery(source=0), policy
    )
    for v in g.vertices():
        got = recovered.answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        )


def test_recovery_costs_bounded_rounds(tmp_path):
    g = road_network(12, 12, seed=3, removal_prob=0.0)
    engine = _engine(g)
    fresh = engine.run(SSSPProgram(), SSSPQuery(source=0))
    total_rounds = len(fresh.rounds)

    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="late")
    engine2 = _engine(g)
    crashy = CrashingSSSP(crash_at_call=10**9)  # never crashes
    engine2.run(crashy, SSSPQuery(source=0), checkpoint=policy)
    # resume from the final checkpoint: almost no rounds left
    recovered = engine2.resume_from_checkpoint(
        SSSPProgram(), SSSPQuery(source=0), policy
    )
    assert len(recovered.rounds) <= max(3, total_rounds // 3)


def test_cc_recovery(tmp_path):
    from repro.algorithms.sequential.cc_seq import connected_components

    g = road_network(9, 9, seed=4)
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="cc")
    engine = _engine(g, workers=3)
    engine.run(CCProgram(), CCQuery(), checkpoint=policy)
    recovered = engine.resume_from_checkpoint(CCProgram(), CCQuery(), policy)
    assert recovered.answer == connected_components(g)


def test_load_latest_without_checkpoints_raises(tmp_path):
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), tag="ghost")
    with pytest.raises(StorageError, match="ghost"):
        policy.load_latest()


def test_no_checkpoints_when_fixpoint_too_fast(tmp_path):
    g = road_network(3, 3, seed=5)
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=50, tag="fast")
    engine = _engine(g, workers=2)
    engine.run(SSSPProgram(), SSSPQuery(source=0), checkpoint=policy)
    assert policy.rounds_saved() == []


def test_torn_latest_pointer_falls_back_to_newest_snapshot(tmp_path):
    g = road_network(10, 10, seed=1, removal_prob=0.0)
    dfs = SimulatedDFS(tmp_path)
    policy = CheckpointPolicy(dfs, every=1, tag="torn")
    engine = _engine(g)
    engine.run(SSSPProgram(), SSSPQuery(source=0), checkpoint=policy)
    saved = policy.rounds_saved()
    assert len(saved) >= 2

    # latest.json torn mid-write: not even JSON
    dfs.put("checkpoints/torn/latest.json", b"{\"round\": 3, \"pa")
    latest_round, state = policy.load_latest()
    assert latest_round == saved[-1]
    assert len(state.partials) == 4

    # pointer intact but names a vanished blob: newest surviving file wins
    dfs.delete(f"checkpoints/torn/round-{saved[-1]:06d}.pkl")
    dfs.put_json(
        "checkpoints/torn/latest.json",
        {"round": saved[-1],
         "path": f"checkpoints/torn/round-{saved[-1]:06d}.pkl"},
    )
    latest_round, _ = policy.load_latest()
    assert latest_round == saved[-2]


def test_keep_retention_prunes_old_snapshots(tmp_path):
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    policy = CheckpointPolicy(
        SimulatedDFS(tmp_path), every=1, tag="prune", keep=2
    )
    engine = _engine(g)
    result = engine.run(SSSPProgram(), SSSPQuery(source=0), checkpoint=policy)
    saved = policy.rounds_saved()
    assert len(saved) == 2  # only the newest two survive
    assert saved == [len(result.rounds) - 1, len(result.rounds)]
    latest_round, _ = policy.load_latest()
    assert latest_round == saved[-1]


def test_run_incremental_checkpoints_on_same_cadence(tmp_path):
    from repro.core.delta import EdgeInsert

    g = road_network(12, 12, seed=3, removal_prob=0.0)
    engine = _engine(g)
    program = SSSPProgram()
    first = engine.run(program, SSSPQuery(source=0), keep_state=True)

    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="inc")
    corner = max(g.vertices())
    shortcut = EdgeInsert(0, corner, first.answer[corner] / 2)
    g.add_edge(0, corner, shortcut.weight)
    second = engine.run_incremental(
        program, SSSPQuery(source=0), first.state, [shortcut],
        checkpoint=policy,
    )
    assert second.answer[corner] == pytest.approx(first.answer[corner] / 2)
    saved = policy.rounds_saved()
    assert saved  # ΔG fixpoint snapshotted
    latest_round, state = policy.load_latest()
    assert latest_round == saved[-1]
    assert len(state.partials) == 4


def test_torn_pointer_with_keep_pruning_recovers_newest_survivor(tmp_path):
    """Torn pointer + keep= pruning combined.

    The fallback scan must land on the newest *surviving* snapshot of
    the pruned retention window, and an intact pointer naming a blob
    that pruning already deleted must not resurrect it.
    """
    g = road_network(12, 12, seed=2, removal_prob=0.0)
    dfs = SimulatedDFS(tmp_path)
    policy = CheckpointPolicy(dfs, every=1, tag="tornprune", keep=2)
    engine = _engine(g)
    engine.run(SSSPProgram(), SSSPQuery(source=0), checkpoint=policy)
    saved = policy.rounds_saved()
    assert len(saved) == 2  # pruned down to the retention window
    assert saved[0] > 1  # earlier rounds existed and were pruned

    # Pointer torn mid-write: fall back to the newest surviving file.
    dfs.put("checkpoints/tornprune/latest.json", b'{"round": ')
    latest_round, state = policy.load_latest()
    assert latest_round == saved[-1]
    assert len(state.partials) == 4

    # Pointer intact but naming a round the keep= pruning deleted:
    # the retention window wins, not the stale pointer.
    pruned = saved[0] - 1
    dfs.put_json(
        "checkpoints/tornprune/latest.json",
        {"round": pruned,
         "path": f"checkpoints/tornprune/round-{pruned:06d}.pkl"},
    )
    latest_round, state = policy.load_latest()
    assert latest_round == saved[-1]

    # Saving from the recovered position keeps the window sliding.
    policy.save(latest_round + 1, state)
    assert policy.rounds_saved() == [saved[-1], latest_round + 1]


def test_run_incremental_crash_resumes_from_checkpoint(tmp_path):
    """A crash mid-ΔG repair resumes from the incremental run's own
    snapshots and still reaches the recomputation answer."""
    from repro.core.delta import EdgeInsert

    g = road_network(12, 12, seed=3, removal_prob=0.0)
    engine = _engine(g)
    first = engine.run(SSSPProgram(), SSSPQuery(source=0), keep_state=True)

    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="incres")
    corner = max(g.vertices())
    shortcut = EdgeInsert(0, corner, first.answer[corner] / 2)
    g.add_edge(0, corner, shortcut.weight)
    crashy = CrashingSSSP(crash_at_call=3)  # dies in repair round 2
    with pytest.raises(ConnectionError):
        engine.run_incremental(
            crashy, SSSPQuery(source=0), first.state, [shortcut],
            checkpoint=policy,
        )
    assert policy.rounds_saved()  # at least one ΔG round snapshotted

    recovered = engine.resume_from_checkpoint(
        SSSPProgram(), SSSPQuery(source=0), policy
    )
    oracle = single_source(g, 0)
    assert recovered.answer[corner] == pytest.approx(
        first.answer[corner] / 2
    )
    for v in g.vertices():
        got = recovered.answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        )


def test_checkpointing_continues_through_recovery(tmp_path):
    """In-run recovery keeps snapshotting the post-recovery rounds."""
    from repro.runtime.faults import CrashFault, FaultPlan

    g = road_network(12, 12, seed=2, removal_prob=0.0)
    policy = CheckpointPolicy(SimulatedDFS(tmp_path), every=1, tag="mid")
    engine = _engine(g)
    plan = FaultPlan(
        faults=(CrashFault(at_superstep=4, fatal=True),), seed=5
    )
    result = engine.run(
        SSSPProgram(), SSSPQuery(source=0), checkpoint=policy, faults=plan
    )
    assert result.metrics.faults.recoveries == 1
    assert result.metrics.faults.rounds_lost >= 1
    saved = policy.rounds_saved()
    # rounds completed after the recovery were snapshotted too: the
    # newest checkpoint is the final round of the healed fixpoint
    # (rewound rounds re-run under their original indices).
    assert saved[-1] == result.rounds[-1].round_index
