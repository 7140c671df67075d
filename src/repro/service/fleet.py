"""Resilient serving fleet: N replicated GrapeServices behind one router.

The engine layer already self-heals (``repro.runtime.faults`` + the
supervisor's checkpoint recovery), but a single
:class:`~repro.service.service.GrapeService` is still a single point of
failure. :class:`FleetRouter` closes that gap on the same deterministic
virtual timeline:

* **Replica-level fault injection** reuses the chaos layer's
  :class:`~repro.runtime.faults.FaultPlan` /
  :class:`~repro.runtime.faults.FaultInjector`: crash faults kill a
  replica (fatal = state lost, rebuilt from checkpoint), stragglers
  delay its serve, and :class:`~repro.runtime.faults.UpdateLagFault`
  makes it fall behind on ΔG batches. All draws come from the plan's
  seeded RNG, so a chaos run replays byte-identically.
* **Deadlines, retries, hedging**: every query carries a deadline in
  simulated seconds; failed attempts fail over to the next replica
  under a fleet-wide retry budget with capped exponential backoff, and
  an attempt whose injected delay exceeds the hedge threshold is
  duplicated to a second replica — first answer wins, the loser is
  cancelled.
* **Circuit breakers**: per replica, closed -> open after K consecutive
  failures -> half-open probe; open replicas leave the rotation until
  their cooldown expires.
* **Graceful degradation**: when no fresh replica can meet the
  deadline, the newest answer the fleet has served for that query is
  returned tagged ``stale=True`` with a staleness bound (graph versions
  behind), or a lagging-but-alive replica answers at its old version —
  an admitted query is *never* dropped.
* **Recovery with delta catch-up**: the router journals every
  ``apply_updates`` batch; a crashed replica restores its newest
  :class:`~repro.core.checkpoint.CheckpointPolicy` snapshot, replays
  the missed journal suffix, and must pass a byte-identical audit
  against a healthy replica before re-entering rotation.

Everything is simulated time and seeded randomness: the
:class:`FleetReport` and the exported fleet trace are byte-stable
across replays of the same seed.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field

from repro.core.checkpoint import CheckpointPolicy
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.errors import (
    FatalWorkerFailure,
    GrapeError,
    ServiceError,
    StorageError,
    TransientWorkerFailure,
)
from repro.graph.generators import graph_from_spec
from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    StragglerFault,
    UpdateLagFault,
)
from repro.service.cache import Uncacheable, freeze
from repro.service.metrics import percentile
from repro.service.scheduler import DEFAULT_PRIORITY
from repro.service.service import GrapeService, canonical_answer_bytes
from repro.service.trace import update_delta
from repro.storage.dfs import SimulatedDFS

#: Circuit-breaker states (surfaced verbatim in the report and trace).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: Simulated cost charged for serving a degraded answer from the
#: fleet's answer store (same order as a service cache hit).
STALE_SERVE_COST = 1e-4

#: Snapshots retained per replica.
CHECKPOINT_KEEP = 3

#: Query class run off the books on a rejoining replica and a healthy
#: one; byte-identical answers gate re-entering rotation.
AUDIT_QUERY = "cc"


def default_chaos_plan(seed: int, fault_rate: float = 0.1) -> FaultPlan:
    """The ``grape serve --chaos-seed`` fault mix at one overall rate.

    A blend of the three replica-level fault classes, scaled off one
    ``fault_rate`` knob: transient crashes (retried), rarer fatal
    crashes (checkpoint + catch-up recovery), stragglers (hedge
    trigger) and update lag (stale serving). ``fault_rate=0`` is an
    empty plan — the fleet runs fault-free but still deterministic.
    """
    if fault_rate <= 0.0:
        return FaultPlan(faults=(), seed=seed)
    return FaultPlan(
        faults=(
            CrashFault(
                probability=min(1.0, fault_rate * 0.25),
                fatal=True,
                times=None,
            ),
            CrashFault(
                probability=min(1.0, fault_rate * 0.5),
                fatal=False,
                times=None,
            ),
            StragglerFault(
                probability=min(1.0, fault_rate),
                delay=0.05,
                times=None,
            ),
            UpdateLagFault(
                probability=min(1.0, fault_rate * 0.5),
                lag=2,
                times=None,
            ),
        ),
        seed=seed,
    )


@dataclass
class FleetResult:
    """Outcome of one fleet-served query."""

    seq: int
    query_class: str
    answer: object
    #: Replica whose answer won (-1 = served from the fleet's store).
    replica: int
    #: True when the answer is older than the fleet's graph version.
    stale: bool
    #: Graph versions the answer is behind (0 for fresh answers).
    staleness: int
    #: Simulated seconds from admission to answer (backoffs included).
    latency: float
    #: Serve attempts dispatched (hedges included).
    attempts: int
    #: ``fresh`` / ``stale_replica`` / ``stale_cache`` / ``recovered``.
    outcome: str
    hedged: bool = False
    #: Graph version the answer is valid at.
    version: int = 1


@dataclass
class Replica:
    """One service replica plus its health bookkeeping."""

    rid: int
    service: GrapeService | None
    checkpoints: CheckpointPolicy
    dead: bool = False
    #: Last known graph version (mirrors the service; survives a crash).
    version: int = 1
    #: ΔG batches this replica still has to skip (update-lag fault).
    lag_remaining: int = 0
    breaker_state: str = BREAKER_CLOSED
    consecutive_failures: int = 0
    #: Simulated time an open breaker re-admits a half-open probe.
    open_until: float = 0.0

    @property
    def health(self) -> str:
        """``down`` / ``lagging`` / breaker state (``closed`` = healthy)."""
        if self.dead:
            return "down"
        if self.breaker_state != BREAKER_CLOSED:
            return self.breaker_state
        if self.lag_remaining > 0:
            return "lagging"
        return "healthy"


@dataclass
class FleetReport:
    """Deterministic snapshot of a fleet's lifetime under (maybe) chaos."""

    replicas: int
    graph_version: int
    simulated_time: float
    admitted: int
    answered: int
    fresh: int
    stale_replica_served: int
    stale_cache_served: int
    deadline_misses: int
    hedges: int
    hedge_wins: int
    failovers: int
    retry_budget_left: int
    breaker_trips: int
    recoveries: int
    catchup_batches: int
    audits_failed: int
    latencies: list[float] = field(default_factory=list)
    replica_states: list[dict] = field(default_factory=list)
    faults: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def availability(self) -> float:
        """Answered over admitted (the number chaos tries to dent)."""
        return self.answered / self.admitted if self.admitted else 1.0

    @property
    def stale_rate(self) -> float:
        """Degraded (stale-tagged) answers over all answers."""
        if not self.answered:
            return 0.0
        return (
            self.stale_replica_served + self.stale_cache_served
        ) / self.answered

    @property
    def survived(self) -> bool:
        """Every admitted query answered and every rejoin audit passed."""
        return (
            self.answered == self.admitted
            and self.audits_failed == 0
            and all(
                r["service"] is None or r["service"]["survived"]
                for r in self.replica_states
            )
        )

    def as_dict(self) -> dict:
        """The full report as one JSON-ready dict (sorted, replay-stable)."""
        return {
            "replicas": self.replicas,
            "graph_version": self.graph_version,
            "simulated_time": self.simulated_time,
            "admitted": self.admitted,
            "answered": self.answered,
            "availability": self.availability,
            "fresh": self.fresh,
            "stale_replica_served": self.stale_replica_served,
            "stale_cache_served": self.stale_cache_served,
            "stale_rate": self.stale_rate,
            "deadline_misses": self.deadline_misses,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "failovers": self.failovers,
            "retry_budget_left": self.retry_budget_left,
            "breaker_trips": self.breaker_trips,
            "recoveries": self.recoveries,
            "catchup_batches": self.catchup_batches,
            "audits_failed": self.audits_failed,
            "survived": self.survived,
            "latency_p50": percentile(self.latencies, 50),
            "latency_p95": percentile(self.latencies, 95),
            "latency_p99": percentile(self.latencies, 99),
            "latency_max": max(self.latencies) if self.latencies else 0.0,
            "replica_states": self.replica_states,
            "faults": self.faults,
        }

    def to_json(self) -> str:
        """The report as indented, key-sorted JSON (byte-stable)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def format(self) -> str:
        """Human-readable fleet report."""
        d = self.as_dict()
        lines = [
            f"fleet report — {self.replicas} replicas, "
            f"graph v{self.graph_version}, "
            f"{self.simulated_time:.4f}s simulated",
            "",
            f"  availability: {d['availability']:.1%} "
            f"({self.answered}/{self.admitted} answered, "
            f"{self.deadline_misses} deadline misses)",
            f"  degraded: {self.stale_replica_served} stale-replica + "
            f"{self.stale_cache_served} stale-cache "
            f"({d['stale_rate']:.1%} of answers)",
            f"  failover: {self.failovers} retries "
            f"(budget left {self.retry_budget_left}), "
            f"{self.hedges} hedges ({self.hedge_wins} won), "
            f"{self.breaker_trips} breaker trips",
            f"  recovery: {self.recoveries} replicas rejoined, "
            f"{self.catchup_batches} journal batches replayed, "
            f"{self.audits_failed} audits failed",
            f"  latency: p50 {d['latency_p50']:.4f}s  "
            f"p95 {d['latency_p95']:.4f}s  p99 {d['latency_p99']:.4f}s",
            "",
            f"  {'replica':<8} {'health':<10} {'version':>7} "
            f"{'breaker':<10} {'failures':>8}",
        ]
        for r in self.replica_states:
            lines.append(
                f"  {r['replica']:<8} {r['health']:<10} {r['version']:>7} "
                f"{r['breaker']:<10} {r['consecutive_failures']:>8}"
            )
        lines.append("")
        verdict = (
            "every admitted query answered (fresh or tagged-stale)"
            if self.survived
            else "DROPPED QUERIES OR FAILED AUDITS — serving hole"
        )
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


class FleetRouter:
    """A deterministic router over N :class:`GrapeService` replicas.

    Args:
        graph_factory: zero-arg callable returning a *fresh* copy of the
            served graph (each replica owns one; all must be identical).
        replicas: number of service replicas.
        num_workers: simulated workers per replica session.
        partition: partition strategy per replica session.
        faults: a :class:`FaultPlan` of replica-level faults (crash,
            straggler, update_lag); None = fault-free.
        deadline: default per-query deadline in simulated seconds
            (None = no deadline; queries never degrade on latency).
        hedge_threshold: injected delay beyond which an attempt is
            hedged to a second replica.
        retry_budget: fleet-wide failover budget (total retries across
            the fleet's lifetime).
        backoff_base / backoff_cap: capped exponential failover backoff
            (``base * 2**(retry-1)``, capped), charged to the latency.
        breaker_threshold: consecutive failures that open a replica's
            circuit breaker.
        breaker_cooldown: simulated seconds an open breaker waits before
            admitting a half-open probe.
        checkpoint_every: snapshot a replica every N applied batches.
        service_kwargs: forwarded to every replica's ``GrapeService``.
        tracer: optional :class:`~repro.obs.Tracer`; the *fleet* emits
            ``fleet_*`` events into it (replicas stay untraced so the
            export reflects router activity).
    """

    def __init__(
        self,
        graph_factory,
        replicas: int = 3,
        num_workers: int = 2,
        partition: str = "hash",
        faults: FaultPlan | None = None,
        deadline: float | None = None,
        hedge_threshold: float = 0.02,
        retry_budget: int = 64,
        backoff_base: float = 0.005,
        backoff_cap: float = 0.1,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 0.5,
        checkpoint_every: int = 1,
        service_kwargs: dict | None = None,
        checkpoint_dir: str | None = None,
        tracer=None,
    ) -> None:
        if replicas < 1:
            raise ServiceError(f"fleet needs >= 1 replica, got {replicas}")
        if retry_budget < 0:
            raise ServiceError(
                f"retry budget must be >= 0, got {retry_budget}"
            )
        self._graph_factory = graph_factory
        self._num_workers = num_workers
        self._partition = partition
        self._service_kwargs = dict(service_kwargs or {})
        self._injector = faults.injector() if faults is not None else None
        self.deadline = deadline
        self.hedge_threshold = hedge_threshold
        self.retry_budget = retry_budget
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.checkpoint_every = max(1, checkpoint_every)
        self._tracer = tracer
        if checkpoint_dir is None:
            # Held for the router's lifetime; removed with it.
            self._tmp = tempfile.TemporaryDirectory(prefix="grape-fleet-")
            checkpoint_dir = self._tmp.name
        self._dfs = SimulatedDFS(checkpoint_dir)
        self._clock = 0.0
        self._next_seq = 0
        self._rr = 0  # round-robin routing pointer
        #: ΔG batches in fleet order; batch i produced graph version i+2.
        self._journal: list[dict] = []
        #: Standing-query specs, re-registered on replica recovery.
        self._standing_specs: list[tuple[str, str, dict]] = []
        #: Newest fresh answer per canonical query key (degraded source).
        self._answers: dict[tuple, tuple[int, object]] = {}
        # Fleet counters (all deterministic).
        self._admitted = 0
        self._answered = 0
        self._fresh = 0
        self._stale_replica = 0
        self._stale_cache = 0
        self._deadline_misses = 0
        self._hedges = 0
        self._hedge_wins = 0
        self._failovers = 0
        self._breaker_trips = 0
        self._recoveries = 0
        self._catchup_batches = 0
        self._audits_failed = 0
        self._latencies: list[float] = []
        self._replicas = [
            self._build_replica(rid) for rid in range(replicas)
        ]
        for replica in self._replicas:
            self._checkpoint(replica)

    # ------------------------------------------------------------------
    # Construction / recovery plumbing
    # ------------------------------------------------------------------
    def _build_replica(self, rid: int) -> Replica:
        return Replica(
            rid=rid,
            service=self._build_service(self._graph_factory(), version=1),
            checkpoints=CheckpointPolicy(
                self._dfs, every=1, tag=f"replica-{rid}",
                keep=CHECKPOINT_KEEP,
            ),
        )

    def _build_service(self, graph, version: int) -> GrapeService:
        session = Session(
            graph,
            num_workers=self._num_workers,
            partition=self._partition,
        )
        return GrapeService(
            session, initial_version=version, **self._service_kwargs
        )

    # ------------------------------------------------------------------
    # Versioned handle
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Fleet graph version (1 + applied update batches)."""
        return 1 + len(self._journal)

    @property
    def clock(self) -> float:
        """Simulated fleet time."""
        return self._clock

    @property
    def replicas(self) -> list[Replica]:
        """The replica roster (read-only by convention)."""
        return self._replicas

    @property
    def fault_counters(self):
        """The injector's counters (None when running fault-free)."""
        return self._injector.counters if self._injector else None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick(
        self, exclude: set[int], require_fresh: bool = True
    ) -> Replica | None:
        """Next replica in rotation that can take a request.

        Deterministic round-robin; skips dead replicas, excluded ones,
        open breakers (unless their cooldown elapsed — then the replica
        re-enters as a half-open probe) and, with ``require_fresh``,
        replicas behind the fleet's graph version.
        """
        n = len(self._replicas)
        for off in range(n):
            idx = (self._rr + off) % n
            replica = self._replicas[idx]
            if replica.dead or replica.rid in exclude:
                continue
            if replica.breaker_state == BREAKER_OPEN:
                if self._clock >= replica.open_until:
                    self._set_breaker(replica, BREAKER_HALF_OPEN)
                else:
                    continue
            if require_fresh and replica.service.version != self.version:
                continue
            self._rr = (idx + 1) % n
            return replica
        return None

    def _set_breaker(self, replica: Replica, state: str) -> None:
        if replica.breaker_state == state:
            return
        replica.breaker_state = state
        if state == BREAKER_OPEN:
            replica.open_until = self._clock + self.breaker_cooldown
            self._breaker_trips += 1
        if self._tracer is not None:
            self._tracer.event(
                "fleet_breaker", replica=replica.rid, state=state,
                failures=replica.consecutive_failures, clock=self._clock,
            )

    def _breaker_failure(self, replica: Replica) -> None:
        replica.consecutive_failures += 1
        if replica.breaker_state == BREAKER_HALF_OPEN:
            self._set_breaker(replica, BREAKER_OPEN)
        elif (
            replica.breaker_state == BREAKER_CLOSED
            and replica.consecutive_failures >= self.breaker_threshold
        ):
            self._set_breaker(replica, BREAKER_OPEN)

    def _breaker_success(self, replica: Replica) -> None:
        replica.consecutive_failures = 0
        if replica.breaker_state != BREAKER_CLOSED:
            self._set_breaker(replica, BREAKER_CLOSED)

    def _crash(self, replica: Replica) -> None:
        """A fatal loss: the replica's in-memory state is gone."""
        replica.version = replica.service.version
        replica.service = None
        replica.dead = True
        replica.consecutive_failures += 1

    def _delay_for(self, replica: Replica, seq: int) -> float:
        """Consult the injector for one serve attempt (may raise)."""
        if self._injector is None:
            return 0.0
        return self._injector.on_compute(replica.rid, seq, "serve")

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def query(
        self,
        query_class: str,
        params: dict | None = None,
        client: str = "anon",
        priority: int = DEFAULT_PRIORITY,
        deadline: float | None = None,
    ) -> FleetResult:
        """Serve one query; an admitted query is always answered.

        The degradation chain: fresh replica within the deadline (with
        failover, backoff and hedging) -> newest stored answer tagged
        stale -> live lagging replica tagged stale -> forced recovery
        of a crashed replica -> fresh-but-late answer. Only when every
        rung is empty (impossible with >= 1 checkpoint) does it raise.
        """
        params = dict(params or {})
        build_query(query_class, **params)  # validate up front
        if deadline is None:
            deadline = self.deadline
        seq = self._next_seq
        self._next_seq += 1
        self._admitted += 1
        start = self._clock
        elapsed = 0.0  # backoff charged before the winning attempt
        attempts = 0
        retries = 0
        hedged = False
        tried: set[int] = set()
        failed_from: int | None = None
        late: tuple[float, int, object] | None = None
        won: tuple[object, int, float] | None = None

        while won is None:
            replica = self._pick(tried, require_fresh=True)
            if replica is None:
                break
            if failed_from is not None and self._tracer is not None:
                self._tracer.event(
                    "fleet_failover", seq=seq, from_replica=failed_from,
                    to_replica=replica.rid, attempt=retries,
                    backoff=min(
                        self.backoff_base * 2 ** max(0, retries - 1),
                        self.backoff_cap,
                    ),
                    clock=self._clock,
                )
            failed_from = None
            attempts += 1
            tried.add(replica.rid)
            try:
                delay = self._delay_for(replica, seq)
            except FatalWorkerFailure:
                self._crash(replica)
                if not self._consume_retry():
                    break
                retries += 1
                elapsed += self._backoff(retries)
                failed_from = replica.rid
                continue
            except TransientWorkerFailure:
                self._breaker_failure(replica)
                if not self._consume_retry():
                    break
                retries += 1
                elapsed += self._backoff(retries)
                failed_from = replica.rid
                continue
            served = replica.service.query(
                query_class, params, client=client, priority=priority
            )
            self._breaker_success(replica)
            answer, cost, winner = served.answer, served.cost + delay, replica
            if delay > self.hedge_threshold:
                answer, cost, winner, hedged = self._hedge(
                    seq, query_class, params, client, priority,
                    tried, replica, answer, cost,
                )
                attempts += int(hedged)
            total = elapsed + cost
            if deadline is not None and total > deadline:
                self._deadline_misses += 1
                if late is None or (cost, winner.rid) < (late[0], late[1]):
                    late = (cost, winner.rid, answer)
                if not self._consume_retry():
                    break
                retries += 1
                elapsed += self._backoff(retries)
                failed_from = winner.rid
                continue
            won = (answer, winner.rid, total)

        if won is not None:
            return self._finish(
                seq, query_class, params, start, won[0], won[1], won[2],
                attempts, "fresh", hedged,
            )
        return self._degrade(
            seq, query_class, params, client, priority, start, elapsed,
            attempts, tried, late, hedged,
        )

    def _backoff(self, retry: int) -> float:
        return min(self.backoff_base * 2 ** (retry - 1), self.backoff_cap)

    def _consume_retry(self) -> bool:
        if self.retry_budget <= 0:
            return False
        self.retry_budget -= 1
        self._failovers += 1
        return True

    def _hedge(
        self, seq, query_class, params, client, priority,
        tried, primary, answer, cost,
    ):
        """Duplicate a slow attempt to a second replica; first wins."""
        second = self._pick(tried, require_fresh=True)
        if second is None:
            return answer, cost, primary, False
        tried.add(second.rid)
        self._hedges += 1
        winner = primary
        try:
            d2 = self._delay_for(second, seq)
            s2 = second.service.query(
                query_class, params, client=client, priority=priority
            )
            self._breaker_success(second)
            c2 = s2.cost + d2
            # Both copies start together: earlier finish wins, ties
            # break toward the lower replica id.
            if (c2, second.rid) < (cost, primary.rid):
                answer, cost, winner = s2.answer, c2, second
                self._hedge_wins += 1
        except FatalWorkerFailure:
            self._crash(second)  # the hedge died; the primary stands
        except TransientWorkerFailure:
            self._breaker_failure(second)
        if self._tracer is not None:
            self._tracer.event(
                "fleet_hedge", seq=seq, primary=primary.rid,
                secondary=second.rid, winner=winner.rid, clock=self._clock,
            )
        return answer, cost, winner, True

    def _degrade(
        self, seq, query_class, params, client, priority, start, elapsed,
        attempts, tried, late, hedged,
    ) -> FleetResult:
        """No fresh replica met the deadline — walk the fallback chain."""
        # 1. Newest stored answer for this query (stale-tagged when the
        #    graph moved on; still fresh when it did not).
        key = self._answer_key(query_class, params)
        if key is not None and key in self._answers:
            version, answer = self._answers[key]
            staleness = self.version - version
            return self._finish(
                seq, query_class, params, start, answer, -1,
                elapsed + STALE_SERVE_COST, attempts,
                "fresh" if staleness == 0 else "stale_cache", hedged,
                version=version,
            )
        # 2. A live replica behind the fleet version answers at its own
        #    (older) version — correct then, tagged stale now.
        replica = self._pick(tried, require_fresh=False)
        if replica is None:
            replica = self._pick(set(), require_fresh=False)
        if replica is not None:
            try:
                delay = self._delay_for(replica, seq)
                served = replica.service.query(
                    query_class, params, client=client, priority=priority
                )
                self._breaker_success(replica)
                staleness = self.version - replica.service.version
                return self._finish(
                    seq, query_class, params, start, served.answer,
                    replica.rid, elapsed + served.cost + delay, attempts + 1,
                    "fresh" if staleness == 0 else "stale_replica", hedged,
                    version=replica.service.version,
                )
            except FatalWorkerFailure:
                self._crash(replica)
            except TransientWorkerFailure:
                self._breaker_failure(replica)
        # 3. Forced recovery: bring a crashed replica back through
        #    checkpoint + catch-up, then serve fresh from it.
        for candidate in self._replicas:
            if candidate.dead and self.recover(candidate.rid):
                served = candidate.service.query(
                    query_class, params, client=client, priority=priority
                )
                return self._finish(
                    seq, query_class, params, start, served.answer,
                    candidate.rid, elapsed + served.cost, attempts + 1,
                    "recovered", hedged,
                )
        # 4. A fresh answer that blew the deadline beats no answer.
        if late is not None:
            cost, rid, answer = late
            return self._finish(
                seq, query_class, params, start, answer, rid,
                elapsed + cost, attempts, "fresh", hedged,
            )
        raise ServiceError(
            f"fleet cannot serve {query_class!r}: no live replica, no "
            "stored answer and no recoverable checkpoint"
        )

    def _answer_key(self, query_class: str, params: dict) -> tuple | None:
        try:
            return (query_class, freeze(params))
        except Uncacheable:
            return None

    def _finish(
        self, seq, query_class, params, start, answer, replica_id, latency,
        attempts, outcome, hedged, version: int | None = None,
    ) -> FleetResult:
        if version is None:
            version = self.version
        stale = version < self.version
        staleness = self.version - version
        self._answered += 1
        if stale:
            if replica_id == -1:
                self._stale_cache += 1
            else:
                self._stale_replica += 1
        else:
            self._fresh += 1
            key = self._answer_key(query_class, params)
            if key is not None:
                self._answers[key] = (version, answer)
        self._latencies.append(latency)
        self._clock = start + latency
        if self._tracer is not None:
            self._tracer.event(
                "fleet_route", seq=seq, query_class=query_class,
                replica=replica_id, attempts=attempts,
                outcome=outcome, stale=stale, staleness=staleness,
                start=start, finish=self._clock,
            )
        return FleetResult(
            seq=seq,
            query_class=query_class,
            answer=answer,
            replica=replica_id,
            stale=stale,
            staleness=staleness,
            latency=latency,
            attempts=attempts,
            outcome=outcome,
            hedged=hedged,
            version=version,
        )

    # ------------------------------------------------------------------
    # Standing queries
    # ------------------------------------------------------------------
    def register_standing(
        self, name: str, query_class: str, params: dict | None = None
    ) -> object:
        """Register a standing query on every live replica."""
        params = dict(params or {})
        answer = None
        for replica in self._replicas:
            if replica.dead:
                continue
            result = replica.service.register_standing(
                name, query_class, params
            )
            if answer is None:
                answer = result
        self._standing_specs.append((name, query_class, params))
        return answer

    def standing_answer(self, name: str) -> object:
        """The maintained answer from the first fresh live replica."""
        for replica in self._replicas:
            if not replica.dead and replica.service.version == self.version:
                return replica.service.standing_answer(name)
        raise ServiceError(
            f"no fresh replica can answer standing query {name!r}"
        )

    # ------------------------------------------------------------------
    # Mutation path + journal
    # ------------------------------------------------------------------
    def apply_updates(
        self, edges=(), deletes=(), reweights=(), verify: bool = False
    ) -> dict[int, object]:
        """Fan one ΔG batch out to the fleet; journal it for catch-up.

        Replicas hit by an update-lag fault defer the batch (they keep
        serving at their old version, tagged stale); dead replicas skip
        it entirely — the journal replays it to them when they rejoin.
        Returns replica id -> that replica's ``UpdateOutcome`` (absent
        for laggards and the dead).
        """
        epoch = len(self._journal)
        record = {
            "edges": list(edges),
            "deletes": list(deletes),
            "reweights": list(reweights),
        }
        self._journal.append(record)
        outcomes: dict[int, object] = {}
        for replica in self._replicas:
            if replica.dead:
                continue
            if self._injector is not None:
                lag = self._injector.on_update(replica.rid, epoch)
                if lag > 0:
                    replica.lag_remaining = max(replica.lag_remaining, lag)
            if replica.lag_remaining > 0:
                replica.lag_remaining -= 1
                continue
            try:
                if replica.service.version < self.version - 1:
                    # Lag window over: replay the whole missed suffix
                    # (including this batch) in journal order.
                    self._catch_up(replica, audit=False)
                else:
                    outcomes[replica.rid] = replica.service.apply_updates(
                        record["edges"],
                        verify=verify,
                        deletes=record["deletes"],
                        reweights=record["reweights"],
                    )
            except GrapeError:
                # A service batch is atomic and replicas are copies of
                # one another, so the first replica to try a bad batch
                # refuses it untouched: un-journal it, or every later
                # catch-up replays it.
                self._journal.pop()
                raise
            replica.version = replica.service.version
            if (epoch + 1) % self.checkpoint_every == 0:
                self._checkpoint(replica)
        return outcomes

    def _catch_up(self, replica: Replica, audit: bool) -> bool:
        """Replay the journal suffix a replica missed; optionally audit."""
        from_version = replica.service.version
        missed = self._journal[from_version - 1:]
        for batch in missed:
            replica.service.apply_updates(
                batch["edges"],
                verify=False,
                deletes=batch["deletes"],
                reweights=batch["reweights"],
            )
        replica.version = replica.service.version
        self._catchup_batches += len(missed)
        audit_ok = self._audit(replica) if audit else True
        if self._tracer is not None:
            self._tracer.event(
                "fleet_catchup", replica=replica.rid,
                from_version=from_version,
                to_version=replica.service.version, batches=len(missed),
                audit_ok=audit_ok, clock=self._clock,
            )
        return audit_ok

    def _checkpoint(self, replica: Replica) -> None:
        """Snapshot a replica's graph + version to the simulated DFS."""
        replica.checkpoints.save(
            replica.service.version,
            {
                "version": replica.service.version,
                "graph": replica.service.session.graph,
            },
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, rid: int) -> bool:
        """Rebuild a crashed replica: checkpoint + journal catch-up + audit.

        Returns True when the replica passed its byte-identical audit
        against a healthy replica and re-entered rotation; False leaves
        it out (and counts a failed audit).
        """
        replica = self._replicas[rid]
        if not replica.dead:
            return True
        try:
            _, snapshot = replica.checkpoints.load_latest()
            graph, version = snapshot["graph"], snapshot["version"]
        except StorageError:
            graph, version = self._graph_factory(), 1
        replica.service = self._build_service(graph, version=version)
        for name, query_class, params in self._standing_specs:
            replica.service.register_standing(name, query_class, params)
        audit_ok = self._catch_up(replica, audit=True)
        if not audit_ok:
            self._audits_failed += 1
            replica.service = None
            return False
        replica.dead = False
        replica.lag_remaining = 0
        replica.consecutive_failures = 0
        if replica.breaker_state != BREAKER_CLOSED:
            self._set_breaker(replica, BREAKER_CLOSED)
        replica.version = replica.service.version
        self._checkpoint(replica)
        self._recoveries += 1
        return True

    def _audit(self, replica: Replica) -> bool:
        """Byte-identical audit of a rejoining replica vs a healthy one.

        Compares every standing answer plus the configured audit query,
        run off the service books through each replica's session (the
        audit never pollutes serving stats or caches).
        """
        reference = next(
            (
                r for r in self._replicas
                if r is not replica
                and not r.dead
                and r.service is not None
                and r.service.version == replica.service.version
            ),
            None,
        )
        if reference is None:
            return True  # nothing to compare against — trust catch-up
        for name, _, _ in self._standing_specs:
            if canonical_answer_bytes(
                replica.service.standing_answer(name)
            ) != canonical_answer_bytes(
                reference.service.standing_answer(name)
            ):
                return False
        return self._session_answer_bytes(
            replica
        ) == self._session_answer_bytes(reference)

    def _session_answer_bytes(self, replica: Replica) -> bytes:
        result = replica.service.session.run(
            get_program(AUDIT_QUERY), build_query(AUDIT_QUERY)
        )
        return canonical_answer_bytes(result.answer)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> FleetReport:
        """Deterministic snapshot of the fleet's lifetime metrics."""
        counters = self.fault_counters
        return FleetReport(
            replicas=len(self._replicas),
            graph_version=self.version,
            simulated_time=self._clock,
            admitted=self._admitted,
            answered=self._answered,
            fresh=self._fresh,
            stale_replica_served=self._stale_replica,
            stale_cache_served=self._stale_cache,
            deadline_misses=self._deadline_misses,
            hedges=self._hedges,
            hedge_wins=self._hedge_wins,
            failovers=self._failovers,
            retry_budget_left=self.retry_budget,
            breaker_trips=self._breaker_trips,
            recoveries=self._recoveries,
            catchup_batches=self._catchup_batches,
            audits_failed=self._audits_failed,
            latencies=list(self._latencies),
            replica_states=[
                {
                    "replica": r.rid,
                    # A replica can be version-lagging even after its
                    # lag window closed (catch-up happens on the next
                    # fan-out) — the fleet-level view catches that.
                    "health": (
                        "lagging"
                        if r.health == "healthy" and r.version < self.version
                        else r.health
                    ),
                    "version": r.version,
                    "breaker": r.breaker_state,
                    "consecutive_failures": r.consecutive_failures,
                    "lag_remaining": r.lag_remaining,
                    "service": (
                        None if r.service is None
                        else r.service.report().as_dict()
                    ),
                }
                for r in self._replicas
            ],
            faults=counters.as_dict() if counters else {},
        )


# ----------------------------------------------------------------------
# Trace replay (the `grape serve --replicas N` path)
# ----------------------------------------------------------------------
def build_fleet(
    trace: dict,
    replicas: int = 3,
    graph_spec: str | None = None,
    faults: FaultPlan | None = None,
    deadline: float | None = None,
    tracer=None,
    **kwargs,
) -> FleetRouter:
    """Construct the fleet a workload trace describes."""
    from repro.errors import GrapeError

    spec = graph_spec or trace.get("graph")
    if not spec:
        raise GrapeError(
            "workload trace names no graph; add a 'graph' spec or pass one"
        )
    knobs = trace.get("service", {})
    service_kwargs = {
        "max_pending": int(knobs.get("max_pending", 64)),
        "concurrency": int(knobs.get("concurrency", 2)),
        "cache_capacity": int(knobs.get("cache_capacity", 256)),
        "cache_ttl": knobs.get("cache_ttl"),
        "rewarm_hottest": int(knobs.get("rewarm_hottest", 0)),
    }
    return FleetRouter(
        lambda: graph_from_spec(spec),
        replicas=replicas,
        num_workers=int(trace.get("workers", 4)),
        partition=trace.get("partition", "hash"),
        faults=faults,
        deadline=deadline,
        service_kwargs=service_kwargs,
        tracer=tracer,
        **kwargs,
    )


def replay_fleet_trace(
    trace: dict,
    fleet: FleetRouter | None = None,
    replicas: int = 3,
    graph_spec: str | None = None,
    faults: FaultPlan | None = None,
    deadline: float | None = None,
    max_queries: int | None = None,
    verify: bool | None = None,
    tracer=None,
) -> tuple[FleetRouter, FleetReport]:
    """Replay a workload trace against a replicated fleet.

    Query ops serve immediately through the router (the fleet has no
    batch drain — ``drain`` ops are no-ops); update ops fan out and are
    journaled. Returns ``(fleet, final report)``.
    """
    if fleet is None:
        fleet = build_fleet(
            trace,
            replicas=replicas,
            graph_spec=graph_spec,
            faults=faults,
            deadline=deadline,
            tracer=tracer,
        )
    for standing in trace.get("standing", []):
        fleet.register_standing(
            standing["name"], standing["class"], standing.get("params")
        )
    queries_sent = 0
    for op in trace["ops"]:
        kind = op["op"]
        if kind == "query":
            for _ in range(int(op.get("repeat", 1))):
                if max_queries is not None and queries_sent >= max_queries:
                    break
                queries_sent += 1
                fleet.query(
                    op["class"],
                    op.get("params"),
                    client=op.get("client", "trace"),
                    priority=int(op.get("priority", DEFAULT_PRIORITY)),
                )
        elif kind == "update":
            if max_queries is not None and queries_sent >= max_queries:
                continue
            fleet.apply_updates(
                update_delta(op),
                verify=op.get("verify", False) if verify is None else verify,
            )
    return fleet, fleet.report()
