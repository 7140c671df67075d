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
* answers are **kept warm across mutations**: ``apply_updates`` routes
  a mixed ΔG batch (insertions, deletions, weight changes) into the
  fragments *once*, bumps the version, invalidates the cache, then
  brings every kept answer to the new version in one loop — the
  registered standing queries (pinned) and the ``rewarm_hottest``
  hottest invalidated cache entries (unpinned). Each is repaired from
  its kept engine state with ``run_incremental`` (monotone resume for
  safe ops, scoped non-monotone repair for the rest); a hot entry
  without one (newly hot, or a program without ΔG hooks) runs cold.
  The cache is re-seeded at the new version with every result.

Consistency model: queries observe the graph version they were admitted
under; ``apply_updates`` therefore drains the queue before mutating (the
drained results ride along in its outcome). All timing is simulated and
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

from repro.core.delta import GraphDelta, check_batch
from repro.core.pie import handles_graph_updates
from repro.engineapi.query import build_query, check_source
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.errors import ServiceError
from repro.service.cache import (
    CacheEntry,
    ResultCache,
    Uncacheable,
    cache_key,
    hottest,
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
class KeptAnswer:
    """An answer kept warm across graph mutations: a standing query
    (pinned, with ``stats``) or a hot cache entry (unpinned)."""

    query_class: str
    params: dict
    query: object
    program: object
    #: Engine state to repair from; None runs the query cold next batch.
    state: object = None
    answer: object = None
    stats: StandingStats | None = None


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
    #: Hot invalidated cache entries kept warm at the new version.
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
        rewarm_hottest: after every mutation batch, keep up to this
            many of the hottest invalidated cache entries warm at the
            new version — repaired when picked the batch before too,
            else run cold — so repeat clients stay on the hit path
            (0 = off).
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
        rewarm_hottest: int = 0,
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
        self._cache = ResultCache(capacity=cache_capacity)
        if rewarm_hottest < 0:
            raise ServiceError(
                f"rewarm_hottest must be >= 0, got {rewarm_hottest}"
            )
        self._rewarm_hottest = rewarm_hottest
        if initial_version < 1:
            raise ServiceError(
                f"initial_version must be >= 1, got {initial_version}"
            )
        self._version = initial_version
        self._clock = 0.0
        self._pending_queries: dict[int, object] = {}
        self._standing: dict[str, KeptAnswer] = {}
        #: Unpinned kept answers by (query class, frozen params): the
        #: hot entries the last batch picked.
        self._hot: dict[tuple, KeptAnswer] = {}
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
        check_source(query, self.session.graph)
        stats = self._class_stats(query_class)
        try:
            key = cache_key(self._version, query_class, params)
        except Uncacheable:
            key = None
            self._cache.stats.uncacheable += 1
        request = QueryRequest(
            seq=self._queue.next_seq(),
            query_class=query_class,
            params=params,
            client=client,
            priority=priority,
            submit_time=self._clock,
            key=key,
        )
        try:
            self._queue.admit(
                request, in_flight=self._lanes.busy_at(self._clock)
            )
        except ServiceError:
            stats.rejected += 1
            if self._tracer is not None:
                self._tracer.event(
                    "svc_reject", query_class=query_class, clock=self._clock
                )
            raise
        stats.submitted += 1
        self._pending_queries[request.seq] = query
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
            self._tracer.event(
                "svc_query",
                seq=request.seq,
                query_class=request.query_class,
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
        key = request.key
        if key is not None:
            entry = self._cache.get(key)
            if entry is not None:
                return entry.answer, HIT_COST, True
        program = self._program(request.query_class)
        result = self._engine.run(program, query)
        cost = self._class_stats(request.query_class).record_run(
            result.metrics
        )
        if key is not None:
            self._seed_cache(
                request.query_class, request.params, result.answer, cost
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
        kept = self._keep(query_class, params or {})
        if not handles_graph_updates(kept.program):
            raise ServiceError(
                f"cannot register standing query {name!r}: program "
                f"{query_class!r} does not implement on_graph_update, so "
                "its answer cannot be repaired incrementally"
            )
        result = self._engine.run(kept.program, kept.query, keep_state=True)
        kept.state, kept.answer = result.state, result.answer
        cost = run_cost(result.metrics)
        lane, start = self._lanes.start(self._clock)
        self._lanes.occupy(lane, start + cost)
        self._clock = max(self._clock, self._lanes.horizon)
        if self._tracer is not None:
            self._tracer.event(
                "svc_standing", name=name, query_class=query_class,
                start=start, finish=start + cost,
            )
        kept.stats = StandingStats(
            name, query_class, cold_work=result.metrics.work()
        )
        self._standing[name] = kept
        self._seed_cache(query_class, kept.params, kept.answer, cost)
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

    def _seed_cache(
        self, query_class: str, params: dict, answer: object, cost: float
    ) -> None:
        """Cache ``answer`` at the current version (if it is cacheable)."""
        try:
            key = cache_key(self._version, query_class, params)
        except Uncacheable:
            return
        self._cache.put(
            key, CacheEntry(answer, self._version, query_class, cost, params)
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
        """Apply one mixed ΔG batch; keep every kept answer warm.

        ``edges`` holds insertions (:class:`EdgeInsert`,
        ``(src, dst[, weight[, label]])`` tuples, or any tagged delta-op
        form), ``deletes`` holds ``(src, dst)`` pairs or
        :class:`EdgeDelete`, and ``reweights`` holds
        ``(src, dst, weight)`` triples or :class:`EdgeReweight`; any
        other row is a ``ProgramError`` and changes nothing. The
        batch is routed into the fragments exactly once. Every standing
        query (by name), then every picked hot cache entry (hottest
        first), is brought to the new version on that shared routing
        and re-seeded into the cache. With ``verify=True`` each repaired
        answer is audited against a fresh full recomputation
        (byte-identical or the report flags a mismatch) — the audit runs
        off the service clock.
        """
        delta = self._as_delta(edges, deletes, reweights)
        # A rejected batch changes nothing: not the queue, the clock, the
        # fragments or the master graph.
        check_batch(self._engine.fragmented, delta)
        drained = self.drain()  # pending queries observe their version
        update_start = self._clock
        # Route through the engine so process-backend workers replay
        # the same fragment mutations (effect sync happens once here,
        # then every repair reuses `touched`).
        touched = self._engine.apply_delta(delta)
        self._mutate_graph(delta, touched)
        self._version += 1
        dropped = self._cache.invalidate_before(self._version)
        outcome = UpdateOutcome(
            version=self._version,
            edges=delta.inserts,
            invalidated=len(dropped),
            deletes=delta.deletes,
            reweights=delta.reweights,
            drained=drained,
        )
        # Standing queries (pinned, by name), then the picked hot cache
        # entries (hottest first), so cache puts land in LRU order. A
        # kept state is repaired on the shared routing; without one the
        # query runs cold, keeping state if its program has ΔG hooks.
        pinned = [(n, self._standing[n]) for n in sorted(self._standing)]
        for name, kept in chain(pinned, self._pick_hot(dropped)):
            if kept.state is None:
                result = self._engine.run(
                    kept.program, kept.query,
                    keep_state=handles_graph_updates(kept.program),
                )
            else:
                result = self._engine.run_incremental(
                    kept.program, kept.query, kept.state, delta,
                    touched=touched,
                )
            kept.state, kept.answer = result.state, result.answer
            cost = run_cost(result.metrics)
            self._clock += cost
            self._seed_cache(kept.query_class, kept.params, kept.answer, cost)
            if name is None:
                outcome.rewarmed += 1
            else:
                outcome.repaired[name] = kept.answer
                kept.stats.repairs += 1
                kept.stats.incremental_work += result.metrics.work()
                kept.stats.incremental_time += cost
            if verify and result.repair is not None:
                identical = self._audit(kept)
                if name is not None:
                    outcome.verified[name] = identical
        self._updates.batches += 1
        self._updates.edges += delta.inserts
        self._updates.deletes += delta.deletes
        self._updates.reweights += delta.reweights
        self._updates.rewarmed += outcome.rewarmed
        if self._tracer is not None:
            self._tracer.event(
                "svc_update",
                version=self._version,
                inserts=delta.inserts,
                deletes=delta.deletes,
                reweights=delta.reweights,
                invalidated=len(dropped),
                start=update_start,
                finish=self._clock,
                repaired=sorted(outcome.repaired),
            )
        return outcome

    def _mutate_graph(self, delta: GraphDelta, touched: dict) -> None:
        """Mirror ``delta`` onto the session's master graph as
        ``apply_delta`` routed it into the fragments (``touched``): an
        insert of an existing edge is a reweight and keeps its label."""
        routed = {
            (op.src, op.dst): op for ops in touched.values() for op in ops
        }
        graph = self.session.graph
        for op in (routed[op.src, op.dst] for op in delta):
            if op.kind == "insert":
                graph.add_edge(op.src, op.dst, op.weight, op.label)
            elif op.kind == "delete":
                graph.remove_edge(op.src, op.dst)
            else:
                graph.add_edge(
                    op.src, op.dst, op.weight,
                    graph.edge_label(op.src, op.dst),
                )

    def _pick_hot(self, dropped: list[CacheEntry]):
        """Yield ``(None, kept)`` for up to ``rewarm_hottest`` of the
        :func:`hottest` ``dropped`` entries, rebuilding ``self._hot``.

        Lazy: an entry whose new key a standing query re-seeded earlier
        in the same loop is skipped. A pick keeps its state from the
        batch before; an entry not picked loses it (it missed a repair).
        """
        before, self._hot = self._hot, {}
        for entry in hottest(dropped):
            if len(self._hot) >= self._rewarm_hottest:
                break
            key = cache_key(self._version, entry.query_class, entry.params)
            if self._cache.contains(key):
                continue
            ident = key[1:]
            kept = before.get(ident) or self._keep(
                entry.query_class, entry.params
            )
            self._hot[ident] = kept
            yield None, kept

    def _audit(self, kept: KeptAnswer) -> bool:
        """Audit one repaired answer against a fresh full run (a hot
        entry's mismatch is booked on the update counters)."""
        full = self._engine.run(self._program(kept.query_class), kept.query)
        identical = canonical_answer_bytes(
            kept.answer
        ) == canonical_answer_bytes(full.answer)
        stats = kept.stats
        if stats is None:
            self._updates.mismatches += not identical
            return identical
        stats.verified_batches += 1
        stats.full_work += full.metrics.work()
        stats.full_time += run_cost(full.metrics)
        stats.mismatches += not identical
        return identical

    @staticmethod
    def _as_delta(edges, deletes, reweights) -> GraphDelta:
        """One mixed :class:`GraphDelta` from the three op sequences:
        ``edges`` as :meth:`GraphDelta.coerce` reads a batch, the other
        two as that kind's rows."""
        rows = GraphDelta.from_dict(
            {"delete": list(deletes), "reweight": list(reweights)}
        )
        return GraphDelta(GraphDelta.coerce(edges).ops + rows.ops)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> ServiceReport:
        """Snapshot of the service's lifetime metrics."""
        cache = self._cache.stats.as_dict()
        cache["size"] = len(self._cache)
        cache["capacity"] = self._cache.capacity
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

    def _keep(self, query_class: str, params: dict) -> KeptAnswer:
        query = build_query(query_class, **params)
        check_source(query, self.session.graph)
        return KeptAnswer(
            query_class, dict(params), query, self._program(query_class)
        )

    def _program(self, query_class: str):
        if query_class == "pagerank":
            return get_program(
                query_class, total_vertices=self.session.graph.num_vertices
            )
        return get_program(query_class)
