"""GrapeService behavior: caching across versions, standing queries,
backpressure, and report determinism."""

import random

import pytest

from repro.algorithms.sequential.dijkstra import INF, single_source
from repro.engineapi.query import build_query
from repro.engineapi.session import Session
from repro.errors import (
    ProgramError,
    QueryError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graph.digraph import Graph
from repro.graph.generators import graph_from_spec, road_network
from repro.service import GrapeService, canonical_answer_bytes
from repro.service.cache import freeze
from repro.service.trace import load_trace, replay_trace

from tests.property.scenarios import GRAPH_SPEC, NUM_WORKERS, random_batch
from tests.service.test_trace import TRACE


def _service(rows=6, cols=6, **kwargs):
    graph = road_network(rows, cols, seed=3, removal_prob=0.0)
    session = Session(graph, num_workers=3, partition="bfs")
    return GrapeService(session, **kwargs)


def _assert_matches_oracle(graph, answer, source):
    oracle = single_source(graph, source)
    for v in graph.vertices():
        got = answer.get(v, INF)
        assert got == pytest.approx(oracle[v]) or (
            got == INF and oracle[v] == INF
        )


# ------------------------------------------------------------ cache behavior
def test_repeated_query_is_served_from_cache():
    service = _service()
    first = service.query("sssp", {"source": 0})
    second = service.query("sssp", {"source": 0})
    assert not first.from_cache
    assert second.from_cache
    assert second.answer == first.answer
    assert second.cost < first.cost
    assert second.version == first.version == 1


def test_cached_answer_is_correct():
    service = _service()
    service.query("sssp", {"source": 0})
    hit = service.query("sssp", {"source": 0})
    _assert_matches_oracle(service.session.graph, hit.answer, 0)


def test_param_canonicalization_shares_cache_entries():
    service = _service()
    service.query("sssp", {"source": 0})
    hit = service.query("sssp", dict(reversed([("source", 0)])))
    assert hit.from_cache


def test_update_bumps_version_and_invalidates_cache():
    service = _service()
    cold = service.query("sssp", {"source": 0})
    outcome = service.apply_updates([(0, 20, 0.05)])
    assert service.version == 2
    assert outcome.version == 2
    assert outcome.invalidated >= 1
    fresh = service.query("sssp", {"source": 0})
    assert not fresh.from_cache
    assert fresh.version == 2
    # The shortcut edge must be visible in the new answer.
    assert fresh.answer[20] <= 0.05 < cold.answer[20]
    _assert_matches_oracle(service.session.graph, fresh.answer, 0)


def test_uncacheable_params_run_uncached():
    graph = Graph()
    graph.add_vertex(0, label="a")
    graph.add_vertex(1, label="a")
    graph.add_edge(0, 1)
    session = Session(graph, num_workers=1)
    service = GrapeService(session)
    pattern = Graph()
    pattern.add_vertex("x", label="a")
    first = service.query("sim", {"pattern": pattern})
    second = service.query("sim", {"pattern": pattern})
    assert not first.from_cache and not second.from_cache
    report = service.report()
    assert report.cache["uncacheable"] == 2


# ------------------------------------------------------------ scheduling
def test_drain_dispatches_in_priority_then_fifo_order():
    service = _service()
    background = service.submit("cc", {}, client="etl", priority=9)
    urgent = service.submit("sssp", {"source": 0}, client="dash", priority=1)
    also_urgent = service.submit("bfs", {"source": 0}, client="dash",
                                 priority=1)
    results = service.drain()
    assert list(results) == [urgent, also_urgent, background]


def test_backpressure_sheds_and_reports():
    service = _service(max_pending=2)
    service.submit("sssp", {"source": 0})
    service.submit("sssp", {"source": 1})
    with pytest.raises(ServiceOverloadedError):
        service.submit("sssp", {"source": 2})
    service.drain()
    report = service.report()
    assert report.queue["rejected"] == 1
    assert report.classes["sssp"]["rejected"] == 1
    assert report.classes["sssp"]["completed"] == 2
    # After draining, the queue accepts work again.
    assert service.query("sssp", {"source": 2}).answer is not None


def test_latencies_include_queue_wait_on_one_lane():
    service = _service(concurrency=1)
    a = service.submit("sssp", {"source": 0})
    b = service.submit("sssp", {"source": 1})
    results = service.drain()
    # Same submit time, one lane: the second run waits for the first.
    assert results[b].latency > results[a].latency


def test_full_lane_with_empty_queue_backpressures():
    # Regression: submit must count in-flight lane occupancy, not just
    # queue depth — a query still executing on the single lane fills
    # capacity=1 even though nothing is queued.
    service = _service(max_pending=1, concurrency=1)
    service._lanes.occupy(0, service.clock + 1.0)  # query mid-execution
    with pytest.raises(ServiceOverloadedError, match="in flight"):
        service.submit("cc", {})
    assert service.queue_depth == 0
    # Once the lane frees (clock reaches its finish), the submit admits.
    service.advance(service.clock + 1.0)
    seq = service.submit("cc", {})
    assert seq in service.drain()


# ------------------------------------------------------------ drain timeline
def test_drain_on_one_admission_instant_fills_lanes_in_priority_order():
    # Every pending request shares one submit time, so all of them are
    # eligible from the start: two lanes, pure (priority, FIFO) order.
    service = _service(concurrency=2)
    background = service.submit("cc", {}, priority=9)
    urgent = service.submit("sssp", {"source": 0}, priority=1)
    also_urgent = service.submit("bfs", {"source": 0}, priority=1)
    middle = service.submit("sssp", {"source": 5}, priority=5)
    results = service.drain()
    assert list(results) == [urgent, also_urgent, middle, background]
    # The two urgent requests start at once, one per lane.
    assert results[urgent].latency == pytest.approx(results[urgent].cost)
    assert results[also_urgent].latency == pytest.approx(
        results[also_urgent].cost
    )
    assert service.clock == pytest.approx(
        max(r.latency for r in results.values())
    )


def test_event_drain_interleaves_late_urgent_arrival():
    # An urgent request that arrives after the lane already started
    # cannot retroactively preempt it.
    service = _service(concurrency=1)
    first = service.submit("sssp", {"source": 0}, priority=5)
    second = service.submit("sssp", {"source": 1}, priority=5)
    service.advance(1e-6)  # the urgent request arrives a tick later
    urgent = service.submit("bfs", {"source": 0}, priority=1)
    # The lane starts `first` at t=0; by the time it frees, the urgent
    # request has arrived and overtakes `second`.
    assert list(service.drain()) == [first, urgent, second]


# ------------------------------------------------------------ standing queries
def test_standing_answers_stay_identical_to_full_recompute():
    service = _service()
    service.register_standing("hub", "sssp", {"source": 0})
    service.register_standing("comp", "cc", {})
    batches = [
        [(0, 25, 0.2), (3, 17, 0.4)],
        [(30, 2, 0.1)],
        [(10, 35, 0.3), (5, 5, 1.0)],
    ]
    for batch in batches:
        outcome = service.apply_updates(batch, verify=True)
        assert outcome.verified == {"comp": True, "hub": True}
        _assert_matches_oracle(
            service.session.graph, service.standing_answer("hub"), 0
        )
    report = service.report()
    assert report.survived
    for standing in report.standing:
        assert standing["repairs"] == len(batches)
        assert standing["mismatches"] == 0


def test_standing_bfs_max_depth_holds_under_inserts():
    """A safe insert must not let an offer past ``max_depth`` into a
    standing BFS answer: 35 is three hops out through the new edge."""
    service = GrapeService(Session(graph_from_spec("road:6x6"), num_workers=3))
    service.register_standing("near", "bfs", {"source": 0, "max_depth": 2})
    outcome = service.apply_updates(edges=[(12, 35, 1.0)], verify=True)
    assert outcome.verified == {"near": True}
    assert service.standing_answer("near")[12] == 2.0
    assert 35 not in service.standing_answer("near")
    assert service.report().survived is True


def test_incremental_repair_does_less_work_than_recompute():
    service = _service(rows=8, cols=8)
    service.register_standing("hub", "sssp", {"source": 0})
    service.apply_updates([(0, 40, 0.5)], verify=True)
    standing = service.report().standing[0]
    assert standing["full_work"] > 0
    assert standing["incremental_work"] < standing["full_work"]
    assert standing["work_ratio"] < 1.0


def test_standing_work_is_metered_and_programs_hold_no_state():
    """Standing work comes off each repair's own metrics; the program
    object, which lives as long as the service, gains nothing per
    batch."""
    service = _service(rows=8, cols=8)
    service.register_standing("hub", "sssp", {"source": 0})
    service.register_standing("comp", "cc", {})
    programs = {
        name: service._standing[name].program for name in ("hub", "comp")
    }
    held = {name: set(vars(program)) for name, program in programs.items()}
    assert held == {"hub": set(), "comp": set()}
    repaired = {program.name: 0 for program in programs.values()}
    run_incremental = service._engine.run_incremental

    def metered(program, *args, **kwargs):
        result = run_incremental(program, *args, **kwargs)
        repaired[program.name] += result.metrics.work()
        return result

    service._engine.run_incremental = metered
    rng = random.Random(4)
    graph = service.session.graph
    batches = 0
    while batches < 200:
        u, v = rng.sample(range(64), 2)
        if graph.has_edge(u, v):
            continue
        service.apply_updates([(u, v, rng.uniform(0.1, 2.0))])
        batches += 1
    for standing in service.report().standing:
        assert standing["repairs"] == 200
        assert standing["incremental_work"] > 0
        assert (
            standing["incremental_work"] == repaired[standing["query_class"]]
        )
    for name, program in programs.items():
        assert set(vars(program)) == held[name]


def test_report_is_byte_identical_across_backends():
    """Work is booked by the engine from what workers return, so the
    serving report — standing work included — does not depend on which
    side of a process boundary the program ran."""
    reports = {}
    for backend in ("simulated", "process"):
        service, report = replay_trace(load_trace(str(TRACE)), backend=backend)
        service.session.close()
        reports[backend] = report
    assert reports["process"].to_json() == reports["simulated"].to_json()
    for standing in reports["process"].standing:
        assert standing["incremental_work"] > 0


def test_standing_repair_reseeds_cache_at_new_version():
    service = _service()
    service.register_standing("hub", "sssp", {"source": 0})
    service.apply_updates([(0, 25, 0.2)])
    hit = service.query("sssp", {"source": 0})
    assert hit.from_cache  # warm at version 2 without any engine run
    assert hit.version == 2
    assert canonical_answer_bytes(hit.answer) == canonical_answer_bytes(
        service.standing_answer("hub")
    )


def test_pending_queries_drain_before_mutation():
    service = _service()
    ticket = service.submit("sssp", {"source": 0})
    outcome = service.apply_updates([(0, 25, 0.2)])
    assert ticket in outcome.drained
    assert outcome.drained[ticket].version == 1  # pre-update snapshot


def test_rejected_update_batch_changes_nothing():
    """A batch the fragments refuse must not reach the master graph
    (the fleet checkpoints it), the version, the cache or the standing
    answers."""
    service = _service()
    standing = service.register_standing("hub", "sssp", {"source": 0})
    edges_before = sorted(
        (e.src, e.dst, e.weight) for e in service.session.graph.edges()
    )
    with pytest.raises(ProgramError):
        service.apply_updates(edges=[(0, 35, 1.5)], deletes=[(0, 999)])
    assert not service.session.graph.has_edge(0, 35)
    assert edges_before == sorted(
        (e.src, e.dst, e.weight) for e in service.session.graph.edges()
    )
    assert service.version == 1
    assert service.standing_answer("hub") == standing
    hit = service.query("sssp", {"source": 0})
    assert hit.from_cache and hit.version == 1
    assert hit.answer == standing
    # The service is still usable, and the next batch sees a clean slate.
    service.apply_updates(edges=[(0, 35, 1.5)])
    assert service.version == 2
    assert service.standing_answer("hub")[35] == 1.5


def test_rejected_update_batch_leaves_the_queue_pending():
    """The batch is validated before the queue drains: a refused one
    answers no pending query and moves neither the clock nor the
    report."""
    service = _service()
    service.submit("sssp", {"source": 0})
    service.submit("cc", {})
    depth, clock = service.queue_depth, service.clock
    report = service.report().to_json()
    assert depth == 2
    with pytest.raises(ProgramError, match="no such edge"):
        service.apply_updates(deletes=[(0, 35)])
    assert service.queue_depth == depth
    assert service.clock == clock
    assert service.report().to_json() == report
    assert len(service.drain()) == depth


def test_duplicate_standing_name_rejected():
    service = _service()
    service.register_standing("hub", "sssp", {"source": 0})
    with pytest.raises(ServiceError, match="already registered"):
        service.register_standing("hub", "cc", {})


def test_standing_requires_incremental_support():
    service = _service()
    with pytest.raises(ServiceError, match="on_graph_update"):
        service.register_standing("ranks", "pagerank", {})


def test_absent_source_is_refused_and_never_cached():
    """ΔG refuses unknown endpoints, so a source that is not a vertex
    can never become one: it used to serve (and cache) ``{}``."""
    service = _service()
    for query_class in ("sssp", "bfs"):
        with pytest.raises(QueryError, match="source 999 is not a vertex"):
            service.query(query_class, {"source": 999})
        with pytest.raises(QueryError, match="source 999 is not a vertex"):
            service.register_standing("far", query_class, {"source": 999})
    assert len(service._cache) == 0
    assert service.report().classes == {}
    assert not service.query("sssp", {"source": 35}).from_cache  # usable


# ------------------------------------------------------------ kept answers
#: Client traffic per round, (class, params, repeats) in order: the
#: hottest two entries change from batch to batch, cc is picked in
#: consecutive batches, and pagerank (no ΔG hooks) is picked twice.
_ROUNDS = [
    [("sssp", {"source": 5}, 3), ("bfs", {"source": 9}, 2),
     ("cc", {}, 1), ("pagerank", {}, 1)],
    [("sssp", {"source": 5}, 1), ("cc", {}, 3), ("pagerank", {}, 3)],
    [("cc", {}, 2), ("pagerank", {}, 1), ("sssp", {"source": 5}, 3)],
    [("pagerank", {}, 3), ("cc", {}, 2)],
    [("pagerank", {}, 2), ("bfs", {"source": 9}, 2), ("sssp", {"source": 5}, 1)],
]


def test_hot_entries_are_kept_and_repaired_like_standing_queries():
    graph = graph_from_spec(GRAPH_SPEC)
    service = GrapeService(
        Session(graph, num_workers=NUM_WORKERS), rewarm_hottest=2
    )
    service.register_standing("hub", "sssp", {"source": 0})
    engine = service._engine
    calls = []  # (method, program name, query) of the current batch

    def recording(method):
        inner = getattr(engine, method)

        def call(program, query, *args, **kwargs):
            calls.append((method, program.name, query))
            return inner(program, query, *args, **kwargs)

        return call

    rng = random.Random(37)
    edges = {(e.src, e.dst) for e in graph.edges()}
    vertices = sorted(graph.vertices())
    sent = 0
    picked_before: set = set()
    repaired = cold = 0
    for traffic in _ROUNDS:
        for query_class, params, repeat in traffic:
            for _ in range(repeat):
                service.query(query_class, params)
                sent += 1
        engine.run = recording("run")
        engine.run_incremental = recording("run_incremental")
        calls.clear()
        outcome = service.apply_updates(random_batch(rng, edges, vertices))
        del engine.run, engine.run_incremental
        picked = set(service._hot)
        assert outcome.rewarmed == len(picked) <= 2
        kept = [*service._standing.values(), *service._hot.values()]
        assert sum(k.state is not None for k in kept) <= 2 + 1
        # Every warmed entry answers as a cold run at the new version.
        for entry in service._cache._entries.values():
            query = build_query(entry.query_class, **entry.params)
            full = engine.run(service._program(entry.query_class), query)
            assert canonical_answer_bytes(
                entry.answer
            ) == canonical_answer_bytes(full.answer), entry.query_class
        for query_class, params in (k[:2] for k in _ROUNDS[0]):
            ident = (query_class, freeze(params))
            if ident not in picked:
                continue
            query = build_query(query_class, **params)
            (method,) = [m for m, _, q in calls if q == query]
            again = ident in picked_before and query_class != "pagerank"
            assert method == ("run_incremental" if again else "run")
            repaired += again
            cold += query_class == "pagerank" and ident in picked_before
        picked_before = picked
    assert repaired and cold  # both arms ran
    report = service.report()
    assert sum(c["submitted"] for c in report.classes.values()) == sent


def test_unknown_standing_query_raises():
    service = _service()
    with pytest.raises(ServiceError, match="unknown standing query"):
        service.standing_answer("nope")
