"""GrapeService: many logical clients, one versioned graph, warm answers.

The serving layer the ROADMAP's "heavy traffic" north star needs in
front of :class:`~repro.core.engine.GrapeEngine`:

* every query goes through a **bounded admission queue** and a
  priority scheduler with ``concurrency`` simulated worker lanes —
  overload sheds requests with a typed error instead of queueing
  without bound;
* the graph lives behind a **monotonically versioned handle**; repeated
  queries at an unchanged version are answered from a
  :class:`~repro.service.cache.ResultCache` in O(1);
* **standing queries** registered once are kept warm across mutations:
  ``apply_updates`` routes a mixed ΔG batch (insertions, deletions,
  weight changes) into the fragments *once*, bumps the version,
  invalidates the cache, and repairs every registered answer with
  ``run_incremental`` — monotone resume for safe ops, scoped
  non-monotone repair for the rest — then re-seeds the cache at the new
  version with the repaired answers and optionally re-warms the
  hottest evicted entries (``rewarm_hottest``).

Consistency model: queries observe the graph version they were admitted
under; ``apply_updates`` therefore drains the queue before mutating (the
drained results ride along in its outcome). All timing is simulated and
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.core.delta import (
    EdgeDelete,
    EdgeReweight,
    GraphDelta,
)
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.errors import ServiceError
from repro.service.cache import (
    CacheEntry,
    ResultCache,
    Uncacheable,
    cache_key,
)
from repro.service.metrics import (
    ClassStats,
    ServiceReport,
    StandingStats,
    UpdateStats,
    run_cost,
)
from repro.service.scheduler import (
    DEFAULT_PRIORITY,
    AdmissionQueue,
    LaneClock,
    QueryRequest,
)


#: Simulated seconds charged for a cache hit.
HIT_COST = 1e-4


def canonical_answer_bytes(answer: object) -> bytes:
    """Deterministic byte form of an assembled answer (for comparison)."""
    return json.dumps(answer, sort_keys=True, default=repr).encode()


@dataclass
class ServedResult:
    """Outcome of one served query."""

    seq: int
    query_class: str
    answer: object
    from_cache: bool
    #: Simulated seconds from admission to completion.
    latency: float
    #: Graph version the answer is valid at.
    version: int
    #: Simulated run cost (cache-hit cost for hits).
    cost: float


@dataclass
class StandingQuery:
    """One registered query kept warm across graph mutations."""

    name: str
    query_class: str
    params: dict
    query: object
    program: object
    state: object
    answer: object
    stats: StandingStats


@dataclass
class UpdateOutcome:
    """What one ``apply_updates`` batch did."""

    version: int
    edges: int
    #: Cache entries dropped because their version is now stale.
    invalidated: int
    #: Deletion ops in the batch.
    deletes: int = 0
    #: Reweight ops in the batch.
    reweights: int = 0
    #: Hot evicted entries recomputed eagerly at the new version.
    rewarmed: int = 0
    #: Results of queries drained before the mutation (seq -> result).
    drained: dict[int, ServedResult] = field(default_factory=dict)
    #: Standing-query name -> repaired answer.
    repaired: dict[str, object] = field(default_factory=dict)
    #: Standing-query name -> verified-identical flag (only when
    #: ``verify=True``).
    verified: dict[str, bool] = field(default_factory=dict)


class GrapeService:
    """Concurrent query serving over one session's fragmented graph.

    Args:
        session: the graph + partition + cluster to serve from.
        max_pending: admission-queue bound (backpressure beyond it).
        concurrency: simulated worker lanes queries dispatch onto.
        cache_capacity: result-cache entry bound (LRU beyond it).
        cache_ttl: result lifetime in simulated seconds (None = no TTL).
        rewarm_hottest: after every mutation batch, re-run (and
            re-cache) up to this many of the hottest invalidated cache
            entries so repeat clients stay on the hit path (0 = off).
        program_kwargs: per-query-class constructor kwargs (e.g.
            ``{"pagerank": {"total_vertices": n}}``); pagerank's
            ``total_vertices`` is defaulted from the graph automatically.
        initial_version: starting graph version. A restored fleet
            replica resumes at its checkpoint's version so journal
            catch-up and cache keys stay aligned with the fleet.
    """

    def __init__(
        self,
        session: Session,
        max_pending: int = 64,
        concurrency: int = 2,
        cache_capacity: int = 256,
        cache_ttl: float | None = None,
        rewarm_hottest: int = 0,
        program_kwargs: dict[str, dict] | None = None,
        initial_version: int = 1,
        tracer=None,
    ) -> None:
        self.session = session
        if tracer is not None:
            session.tracer = tracer
        #: The session's tracer (if any) also records service admission,
        #: queue/lane and update activity — simulated clock only.
        self._tracer = getattr(session, "tracer", None)
        self._engine = session.engine()
        self._queue = AdmissionQueue(capacity=max_pending)
        self._lanes = LaneClock(concurrency=concurrency)
        self._cache = ResultCache(capacity=cache_capacity, ttl=cache_ttl)
        if rewarm_hottest < 0:
            raise ServiceError(
                f"rewarm_hottest must be >= 0, got {rewarm_hottest}"
            )
        self._rewarm_hottest = rewarm_hottest
        self._program_kwargs = dict(program_kwargs or {})
        if initial_version < 1:
            raise ServiceError(
                f"initial_version must be >= 1, got {initial_version}"
            )
        self._version = initial_version
        self._clock = 0.0
        self._pending_queries: dict[int, object] = {}
        self._standing: dict[str, StandingQuery] = {}
        self._classes: dict[str, ClassStats] = {}
        self._updates = UpdateStats()

    # ------------------------------------------------------------------
    # Versioned handle
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Current graph version (bumped by every update batch)."""
        return self._version

    @property
    def clock(self) -> float:
        """Simulated service time."""
        return self._clock

    @property
    def queue_depth(self) -> int:
        """Requests currently pending admission."""
        return self._queue.depth

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(
        self,
        query_class: str,
        params: dict | None = None,
        client: str = "anon",
        priority: int = DEFAULT_PRIORITY,
    ) -> int:
        """Admit one query; returns its ticket (sequence number).

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        admission queue is full and
        :class:`~repro.errors.QueryError` when the parameters don't
        build a valid query of ``query_class``.
        """
        params = dict(params or {})
        query = build_query(query_class, **params)  # validate up front
        stats = self._class_stats(query_class)
        cacheable = True
        try:
            cache_key(self._version, query_class, params)
        except Uncacheable:
            cacheable = False
            self._cache.stats.uncacheable += 1
        request = QueryRequest(
            seq=self._queue.next_seq(),
            query_class=query_class,
            params=params,
            client=client,
            priority=priority,
            submit_time=self._clock,
            cacheable=cacheable,
        )
        try:
            self._queue.admit(
                request, in_flight=self._lanes.busy_at(self._clock)
            )
        except ServiceError:
            stats.rejected += 1
            if self._tracer is not None:
                self._tracer.svc_reject(query_class, self._clock)
            raise
        stats.submitted += 1
        self._pending_queries[request.seq] = query
        if self._tracer is not None:
            self._tracer.svc_submit(
                request.seq,
                query_class,
                clock=self._clock,
                cacheable=cacheable,
                priority=priority,
            )
        return request.seq

    def drain(self) -> dict[int, ServedResult]:
        """Dispatch every pending request; returns ticket -> result.

        Replays the timeline causally: admissions interleave with lane
        completions, so a request is only eligible once its submit time
        has been reached, and an urgent request that arrives after a
        lane already started cannot retroactively preempt it. Among the
        eligible requests dispatch is in ``(priority, admission order)``
        onto the earliest free simulated lane. The service clock
        advances to the point where every lane is idle again.
        """
        results: dict[int, ServedResult] = {}
        remaining = self._queue.take_all()
        while remaining:
            # The next dispatch happens when a lane frees up — or, if
            # nothing has arrived by then, when the next request is
            # admitted.
            now = min(self._lanes.free_at)
            arrived = [r for r in remaining if r.submit_time <= now]
            if not arrived:
                now = min(r.submit_time for r in remaining)
                arrived = [r for r in remaining if r.submit_time <= now]
            request = min(arrived, key=lambda r: r.order_key)
            remaining.remove(request)
            results[request.seq] = self._dispatch(request)
        self._clock = max(self._clock, self._lanes.horizon)
        return results

    def _dispatch(self, request: QueryRequest) -> ServedResult:
        """Run one admitted request on the earliest free lane."""
        query = self._pending_queries.pop(request.seq)
        lane, start = self._lanes.start(request.submit_time)
        answer, cost, from_cache = self._execute(request, query)
        finish = start + cost
        self._lanes.occupy(lane, finish)
        stats = self._class_stats(request.query_class)
        stats.completed += 1
        stats.latencies.append(finish - request.submit_time)
        if from_cache:
            stats.cache_hits += 1
        if self._tracer is not None:
            self._tracer.svc_query(
                request.seq,
                request.query_class,
                lane=lane,
                submit=request.submit_time,
                start=start,
                finish=finish,
                from_cache=from_cache,
                cost=cost,
                version=self._version,
            )
        return ServedResult(
            seq=request.seq,
            query_class=request.query_class,
            answer=answer,
            from_cache=from_cache,
            latency=finish - request.submit_time,
            version=self._version,
            cost=cost,
        )

    def advance(self, to: float) -> None:
        """Advance the simulated clock (no-op when ``to`` is in the past).

        Lets a workload replay space admissions out in time; ``drain``
        honors the spacing.
        """
        self._clock = max(self._clock, float(to))

    def query(
        self,
        query_class: str,
        params: dict | None = None,
        client: str = "anon",
        priority: int = DEFAULT_PRIORITY,
    ) -> ServedResult:
        """Submit one query and drain immediately (convenience path)."""
        seq = self.submit(
            query_class, params, client=client, priority=priority
        )
        return self.drain()[seq]

    def _execute(
        self, request: QueryRequest, query: object
    ) -> tuple[object, float, bool]:
        """(answer, simulated cost, from_cache) for one dispatch."""
        key = None
        if request.cacheable:
            key = cache_key(self._version, request.query_class, request.params)
            entry = self._cache.get(key, now=self._clock)
            if entry is not None:
                return entry.answer, HIT_COST, True
        program = self._program(request.query_class)
        result = self._engine.run(program, query)
        cost = self._class_stats(request.query_class).record_run(
            result.metrics
        )
        if key is not None:
            self._cache.put(
                key,
                CacheEntry(
                    answer=result.answer,
                    version=self._version,
                    query_class=request.query_class,
                    stored_at=self._clock,
                    cost=cost,
                    params=dict(request.params),
                ),
            )
        return result.answer, cost, False

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def register_standing(
        self,
        name: str,
        query_class: str,
        params: dict | None = None,
    ) -> object:
        """Register a query the service keeps warm across mutations.

        Runs it cold once with ``keep_state=True`` and returns the
        answer; every later ``apply_updates`` batch repairs it through
        ``run_incremental``. The program must implement
        ``on_graph_update`` (sssp, bfs, cc and kcore do; kcore also
        handles the non-monotone insertion arm via ``repair_partial``).
        """
        if name in self._standing:
            raise ServiceError(f"standing query {name!r} already registered")
        params = dict(params or {})
        query = build_query(query_class, **params)
        program = self._program(query_class)
        from repro.core.pie import PIEProgram

        if type(program).on_graph_update is PIEProgram.on_graph_update:
            raise ServiceError(
                f"cannot register standing query {name!r}: program "
                f"{query_class!r} does not implement on_graph_update, so "
                "its answer cannot be repaired incrementally"
            )
        result = self._engine.run(program, query, keep_state=True)
        cost = run_cost(result.metrics)
        lane, start = self._lanes.start(self._clock)
        self._lanes.occupy(lane, start + cost)
        self._clock = max(self._clock, self._lanes.horizon)
        if self._tracer is not None:
            self._tracer.svc_standing(
                name, query_class, start=start, finish=start + cost
            )
        stats = StandingStats(
            name=name,
            query_class=query_class,
            cold_work=result.metrics.work(),
        )
        self._standing[name] = StandingQuery(
            name=name,
            query_class=query_class,
            params=params,
            query=query,
            program=program,
            state=result.state,
            answer=result.answer,
            stats=stats,
        )
        self._seed_cache(self._standing[name], cost)
        return result.answer

    def standing_answer(self, name: str) -> object:
        """The current (maintained) answer of a standing query."""
        try:
            return self._standing[name].answer
        except KeyError:
            raise ServiceError(
                f"unknown standing query {name!r}; registered: "
                f"{sorted(self._standing)}"
            ) from None

    def standing_queries(self) -> list[str]:
        """Names of all registered standing queries."""
        return sorted(self._standing)

    def _seed_cache(self, standing: StandingQuery, cost: float) -> None:
        """Warm the cache at the current version with a standing answer."""
        try:
            key = cache_key(
                self._version, standing.query_class, standing.params
            )
        except Uncacheable:
            return
        self._cache.put(
            key,
            CacheEntry(
                answer=standing.answer,
                version=self._version,
                query_class=standing.query_class,
                stored_at=self._clock,
                cost=cost,
                params=dict(standing.params),
            ),
        )

    # ------------------------------------------------------------------
    # Mutation path
    # ------------------------------------------------------------------
    def apply_updates(
        self,
        edges=(),
        verify: bool = False,
        deletes=(),
        reweights=(),
    ) -> UpdateOutcome:
        """Apply one mixed ΔG batch; repair standing answers.

        ``edges`` holds insertions (:class:`EdgeInsert`,
        ``(src, dst[, weight[, label]])`` tuples, or any tagged delta-op
        form), ``deletes`` holds ``(src, dst)`` pairs or
        :class:`EdgeDelete`, and ``reweights`` holds
        ``(src, dst, weight)`` triples or :class:`EdgeReweight`. The
        batch is routed into the fragments exactly once; every standing
        query is then repaired via ``run_incremental`` on the shared
        routing — its program decides per op whether to resume
        monotonically or enter the non-monotone repair path. With
        ``verify=True`` each repaired answer is audited against a fresh
        full recomputation (byte-identical or the report flags a
        mismatch) — the audit runs off the service clock.
        """
        delta = self._as_delta(edges, deletes, reweights)
        drained = self.drain()  # pending queries observe their version
        update_start = self._clock
        # Route through the engine so process-backend workers replay
        # the same fragment mutations (effect sync happens once here,
        # then every standing repair reuses `touched`). It validates the
        # whole batch first, so a rejected batch changes nothing — the
        # master graph is only touched once routing has succeeded.
        touched = self._engine.apply_delta(delta)
        self._mutate_graph(delta)
        self._version += 1
        invalidated = self._cache.invalidate_before(self._version)
        outcome = UpdateOutcome(
            version=self._version,
            edges=delta.inserts,
            invalidated=invalidated,
            deletes=delta.deletes,
            reweights=delta.reweights,
            drained=drained,
        )
        for name in sorted(self._standing):
            standing = self._standing[name]
            result = self._engine.run_incremental(
                standing.program,
                standing.query,
                standing.state,
                delta,
                touched=touched,
            )
            standing.state = result.state
            standing.answer = result.answer
            stats = standing.stats
            stats.repairs += 1
            stats.incremental_work += result.metrics.work()
            repair_cost = run_cost(result.metrics)
            stats.incremental_time += repair_cost
            self._clock += repair_cost
            self._seed_cache(standing, repair_cost)
            outcome.repaired[name] = result.answer
            if verify:
                outcome.verified[name] = self._verify_standing(standing)
        outcome.rewarmed = self._rewarm()
        self._updates.batches += 1
        self._updates.edges += delta.inserts
        self._updates.deletes += delta.deletes
        self._updates.reweights += delta.reweights
        self._updates.rewarmed += outcome.rewarmed
        if self._tracer is not None:
            self._tracer.svc_update(
                version=self._version,
                inserts=delta.inserts,
                deletes=delta.deletes,
                reweights=delta.reweights,
                invalidated=invalidated,
                start=update_start,
                finish=self._clock,
                repaired=sorted(outcome.repaired),
            )
        return outcome

    def _mutate_graph(self, delta: GraphDelta) -> None:
        """Mirror an already-routed delta onto the session's master graph."""
        graph = self.session.graph
        for op in delta:
            if op.kind == "insert":
                graph.add_edge(op.src, op.dst, op.weight, op.label)
            elif op.kind == "delete":
                graph.remove_edge(op.src, op.dst)
            else:
                graph.add_edge(
                    op.src, op.dst, op.weight,
                    graph.edge_label(op.src, op.dst),
                )

    def _rewarm(self) -> int:
        """Recompute the hottest invalidated entries at the new version.

        Evicted-entry hotness (lookup hits) picks the queries repeat
        clients are most likely to ask again; each re-runs through the
        ordinary query path and lands back in the cache so the next
        lookup hits. Entries the standing-query repair already re-seeded
        don't need (and don't consume) a re-warm slot — the budget is
        ``rewarm_hottest`` *recomputations*, walked in hotness order.
        """
        rewarmed = 0
        for entry in self._cache.hottest_invalidated():
            if rewarmed >= self._rewarm_hottest:
                break
            try:
                key = cache_key(self._version, entry.query_class, entry.params)
            except Uncacheable:
                continue
            if self._cache.contains(key):
                continue
            self.query(entry.query_class, entry.params, client="rewarm")
            rewarmed += 1
        return rewarmed

    def _verify_standing(self, standing: StandingQuery) -> bool:
        """Audit one standing answer against a fresh full run."""
        program = self._program(standing.query_class)
        full = self._engine.run(program, standing.query)
        stats = standing.stats
        stats.verified_batches += 1
        stats.full_work += full.metrics.work()
        stats.full_time += run_cost(full.metrics)
        identical = canonical_answer_bytes(
            standing.answer
        ) == canonical_answer_bytes(full.answer)
        if not identical:
            stats.mismatches += 1
        return identical

    @staticmethod
    def _as_delta(edges, deletes, reweights) -> GraphDelta:
        """One mixed :class:`GraphDelta` from the three op sequences."""
        ops = list(GraphDelta.coerce(list(edges)).ops)
        for item in deletes:
            if isinstance(item, EdgeDelete):
                ops.append(item)
            else:
                src, dst, *_ = item
                ops.append(EdgeDelete(src=src, dst=dst))
        for item in reweights:
            if isinstance(item, EdgeReweight):
                ops.append(item)
            else:
                src, dst, weight, *_ = item
                ops.append(
                    EdgeReweight(src=src, dst=dst, weight=float(weight))
                )
        return GraphDelta(ops=tuple(ops))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        """Snapshot of the service's lifetime metrics."""
        cache = self._cache.stats.as_dict()
        cache["size"] = len(self._cache)
        cache["capacity"] = self._cache.capacity
        cache["ttl"] = self._cache.ttl
        return ServiceReport(
            graph_version=self._version,
            simulated_time=self._clock,
            num_workers=self.session.num_workers,
            queue={
                "capacity": self._queue.capacity,
                "concurrency": self._lanes.concurrency,
                "depth": self._queue.depth,
                "max_depth": self._queue.max_depth,
                "rejected": self._queue.rejected,
            },
            cache=cache,
            classes={
                name: stats.as_dict()
                for name, stats in sorted(self._classes.items())
            },
            standing=[
                self._standing[name].stats.as_dict()
                for name in sorted(self._standing)
            ],
            updates=self._updates.as_dict(),
        )

    # ------------------------------------------------------------------
    def _class_stats(self, query_class: str) -> ClassStats:
        if query_class not in self._classes:
            self._classes[query_class] = ClassStats()
        return self._classes[query_class]

    def _program(self, query_class: str):
        kwargs = dict(self._program_kwargs.get(query_class, {}))
        if query_class == "pagerank":
            kwargs.setdefault(
                "total_vertices", self.session.graph.num_vertices
            )
        return get_program(query_class, **kwargs)
