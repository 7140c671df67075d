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
import math
import tempfile
from dataclasses import dataclass, field, replace

from repro.core.checkpoint import CheckpointPolicy
from repro.core.delta import GraphDelta, apply_delta
from repro.core.supervisor import capped_backoff
from repro.engineapi.query import build_query, check_source
from repro.engineapi.registry import get_program
from repro.errors import (
    FatalWorkerFailure,
    ServiceError,
    StorageError,
    TransientWorkerFailure,
)
from repro.graph.fragment import build_fragments
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
from repro.service.trace import build_service
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

#: Injected delay (simulated seconds) beyond which an attempt is
#: hedged to a second replica.
HEDGE_THRESHOLD = 0.02

#: Fleet-wide failover budget: total retries over the fleet's lifetime.
RETRY_BUDGET = 64

#: Capped exponential failover backoff (simulated seconds), charged to
#: the query's latency.
BACKOFF_BASE = 0.005
BACKOFF_CAP = 0.1

#: Consecutive failures that open a replica's circuit breaker.
BREAKER_THRESHOLD = 3

#: Simulated seconds an open breaker waits before a half-open probe.
BREAKER_COOLDOWN = 0.5


def _check_deadline(deadline: float | None) -> float | None:
    if deadline is not None and not 0.0 <= deadline < math.inf:
        raise ServiceError(
            "a deadline is a finite number of simulated seconds >= 0, "
            f"got {deadline!r}"
        )
    return deadline


def default_chaos_plan(seed: int, fault_rate: float = 0.1) -> FaultPlan:
    """The ``grape serve --chaos-seed`` fault mix at one overall rate.

    A blend of the three replica-level fault classes, scaled off one
    ``fault_rate`` knob: transient crashes (retried), rarer fatal
    crashes (checkpoint + catch-up recovery), stragglers (hedge
    trigger) and update lag (stale serving). ``fault_rate=0`` is an
    empty plan — the fleet runs fault-free but still deterministic. A
    rate outside [0, 1] (or NaN) is a :class:`ServiceError`.
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ServiceError(
            f"fault rate must be within [0, 1], got {fault_rate!r}"
        )
    if fault_rate == 0.0:
        return FaultPlan(faults=(), seed=seed)
    return FaultPlan(
        faults=(
            CrashFault(probability=fault_rate * 0.25, fatal=True, times=None),
            CrashFault(probability=fault_rate * 0.5, fatal=False, times=None),
            StragglerFault(probability=fault_rate, delay=0.05, times=None),
            UpdateLagFault(probability=fault_rate * 0.5, lag=2, times=None),
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
    """Deterministic snapshot of a fleet's lifetime under (maybe) chaos.

    The router counts into one as it serves; ``FleetRouter.report``
    copies it and fills in the values read at report time.
    """

    replicas: int
    graph_version: int = 0
    simulated_time: float = 0.0
    admitted: int = 0
    answered: int = 0
    fresh: int = 0
    stale_replica_served: int = 0
    stale_cache_served: int = 0
    deadline_misses: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    retry_budget_left: int = 0
    breaker_trips: int = 0
    recoveries: int = 0
    catchup_batches: int = 0
    audits_failed: int = 0
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
    """A deterministic router over N copies of one :class:`GrapeService`.

    Args:
        trace: the workload trace whose service every replica is —
            built by :func:`~repro.service.trace.build_service`, so the
            graph, worker count, partition, store and service knobs
            come from the trace exactly as for one service.
        replicas: number of service replicas.
        faults: a :class:`FaultPlan` of replica-level faults (crash,
            straggler, update_lag); None = fault-free.
        deadline: default per-query deadline in simulated seconds
            (None = no deadline; queries never degrade on latency).
        tracer: optional :class:`~repro.obs.Tracer`; the *fleet* emits
            ``fleet_*`` events into it (replicas stay untraced so the
            export reflects router activity).

    Hedging, retries, backoff and breakers follow the module constants
    :data:`HEDGE_THRESHOLD`, :data:`RETRY_BUDGET`,
    :data:`BACKOFF_BASE` / :data:`BACKOFF_CAP`,
    :data:`BREAKER_THRESHOLD` and :data:`BREAKER_COOLDOWN`.
    """

    def __init__(
        self,
        trace: dict,
        replicas: int = 3,
        faults: FaultPlan | None = None,
        deadline: float | None = None,
        tracer=None,
    ) -> None:
        if replicas < 1:
            raise ServiceError(f"fleet needs >= 1 replica, got {replicas}")
        self._trace = trace
        self._injector = faults.injector() if faults is not None else None
        self.deadline = _check_deadline(deadline)
        self._retry_budget = RETRY_BUDGET
        self._tracer = tracer
        # Replica snapshots go to a temporary directory held for the
        # router's lifetime and removed with it.
        self._tmp = tempfile.TemporaryDirectory(prefix="grape-fleet-")
        self._dfs = SimulatedDFS(self._tmp.name)
        self._clock = 0.0
        self._next_seq = 0
        self._rr = 0  # round-robin routing pointer
        #: ΔG batches in fleet order; batch i produced graph version i+2.
        self._journal: list[GraphDelta] = []
        #: Standing-query specs, re-registered on replica recovery.
        self._standing_specs: list[tuple[str, str, dict]] = []
        #: Newest fresh answer per canonical query key (degraded source).
        self._answers: dict[tuple, tuple[int, object]] = {}
        #: Lifetime counters (all deterministic).
        self._counts = FleetReport(replicas)
        self._replicas = [
            Replica(
                rid=rid,
                service=build_service(trace),
                checkpoints=CheckpointPolicy(
                    self._dfs, every=1, tag=f"replica-{rid}",
                    keep=CHECKPOINT_KEEP,
                ),
            )
            for rid in range(replicas)
        ]
        for replica in self._replicas:
            self._checkpoint(replica)
        #: The graph at the fleet's version, as one fragment: every
        #: batch is checked against it before it is journaled.
        graph = self._replicas[0].service.session.graph
        self._head = build_fragments(
            graph, dict.fromkeys(graph.vertices(), 0), 1
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
            replica.open_until = self._clock + BREAKER_COOLDOWN
            self._counts.breaker_trips += 1
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
            and replica.consecutive_failures >= BREAKER_THRESHOLD
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

    def _attempt(self, replica: Replica, seq: int, request: tuple):
        """One serve attempt: ``(served, injected delay)``, or None when
        an injected crash failed it (booked on the replica's health)."""
        try:
            delay = (
                self._injector.on_compute(replica.rid, seq, "serve")
                if self._injector is not None
                else 0.0
            )
        except FatalWorkerFailure:
            self._crash(replica)
            return None
        except TransientWorkerFailure:
            self._breaker_failure(replica)
            return None
        served = replica.service.query(*request)
        self._breaker_success(replica)
        return served, delay

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
        query = build_query(query_class, **params)  # validate up front
        check_source(query, self._head.fragments[0].graph)
        if deadline is None:
            deadline = self.deadline
        _check_deadline(deadline)
        request = (query_class, params, client, priority)
        seq = self._next_seq
        self._next_seq += 1
        self._counts.admitted += 1
        start = self._clock
        elapsed = 0.0  # backoff charged before the winning attempt
        attempts = 0
        retries = 0
        backoff = 0.0
        hedged = False
        tried: set[int] = set()
        failed_from: int | None = None
        late: tuple[float, int, object] | None = None

        while True:
            replica = self._pick(tried, require_fresh=True)
            if replica is None:
                break
            if failed_from is not None and self._tracer is not None:
                self._tracer.event(
                    "fleet_failover", seq=seq, from_replica=failed_from,
                    to_replica=replica.rid, attempt=retries,
                    backoff=backoff, clock=self._clock,
                )
            attempts += 1
            tried.add(replica.rid)
            failed_from = replica.rid
            attempt = self._attempt(replica, seq, request)
            if attempt is not None:
                served, delay = attempt
                answer, cost, winner = (
                    served.answer, served.cost + delay, replica
                )
                if delay > HEDGE_THRESHOLD:
                    answer, cost, winner, hedged = self._hedge(
                        seq, request, tried, replica, answer, cost
                    )
                    attempts += int(hedged)
                total = elapsed + cost
                if deadline is None or total <= deadline:
                    return self._finish(
                        seq, query_class, params, start, answer,
                        winner.rid, total, attempts, "fresh", hedged,
                    )
                self._counts.deadline_misses += 1
                if late is None or (cost, winner.rid) < late[:2]:
                    late = (cost, winner.rid, answer)
                failed_from = winner.rid
            if not self._consume_retry():
                break
            retries += 1
            backoff = capped_backoff(retries, BACKOFF_BASE, BACKOFF_CAP)
            elapsed += backoff

        return self._degrade(
            seq, request, start, elapsed, attempts, tried, late, hedged
        )

    def _consume_retry(self) -> bool:
        if self._retry_budget <= 0:
            return False
        self._retry_budget -= 1
        self._counts.failovers += 1
        return True

    def _hedge(self, seq, request, tried, primary, answer, cost):
        """Duplicate a slow attempt to a second replica; first wins."""
        second = self._pick(tried, require_fresh=True)
        if second is None:
            return answer, cost, primary, False
        tried.add(second.rid)
        self._counts.hedges += 1
        winner = primary
        attempt = self._attempt(second, seq, request)
        if attempt is not None:
            served, delay = attempt
            cost2 = served.cost + delay
            # Both copies start together: earlier finish wins, ties
            # break toward the lower replica id.
            if (cost2, second.rid) < (cost, primary.rid):
                answer, cost, winner = served.answer, cost2, second
                self._counts.hedge_wins += 1
        if self._tracer is not None:
            self._tracer.event(
                "fleet_hedge", seq=seq, primary=primary.rid,
                secondary=second.rid, winner=winner.rid, clock=self._clock,
            )
        return answer, cost, winner, True

    def _degrade(
        self, seq, request, start, elapsed, attempts, tried, late, hedged
    ) -> FleetResult:
        """No fresh replica met the deadline — walk the fallback chain."""
        query_class, params = request[:2]
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
        replica = self._pick(tried, require_fresh=False) or self._pick(
            set(), require_fresh=False
        )
        attempt = replica and self._attempt(replica, seq, request)
        if attempt:
            served, delay = attempt
            staleness = self.version - replica.service.version
            return self._finish(
                seq, query_class, params, start, served.answer,
                replica.rid, elapsed + served.cost + delay, attempts + 1,
                "fresh" if staleness == 0 else "stale_replica", hedged,
                version=replica.service.version,
            )
        # 3. Forced recovery: bring a crashed replica back through
        #    checkpoint + catch-up, then serve fresh from it.
        for candidate in self._replicas:
            if candidate.dead and self.recover(candidate.rid):
                served = candidate.service.query(*request)
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
        self._counts.answered += 1
        if stale:
            if replica_id == -1:
                self._counts.stale_cache_served += 1
            else:
                self._counts.stale_replica_served += 1
        else:
            self._counts.fresh += 1
            key = self._answer_key(query_class, params)
            if key is not None:
                self._answers[key] = (version, answer)
        self._counts.latencies.append(latency)
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

        The batch is checked at the fleet's version first, whatever the
        replicas' lag: a refused batch raises and is never journaled
        (catch-up would replay it in front of every later batch).
        Replicas hit by an update-lag fault defer it (they keep serving
        at their old version, tagged stale); dead replicas skip it
        entirely — the journal replays it to them when they rejoin.
        Returns replica id -> that replica's ``UpdateOutcome`` (absent
        for laggards and the dead).
        """
        delta = GrapeService._as_delta(edges, deletes, reweights)
        apply_delta(self._head, delta)
        epoch = len(self._journal)
        self._journal.append(delta)
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
            if replica.service.version < self.version - 1:
                # Lag window over: replay the whole missed suffix
                # (including this batch) in journal order.
                self._catch_up(replica, audit=False)
            else:
                outcomes[replica.rid] = replica.service.apply_updates(
                    delta, verify=verify
                )
            replica.version = replica.service.version
            self._checkpoint(replica)
        return outcomes

    def _catch_up(self, replica: Replica, audit: bool) -> bool:
        """Replay the journal suffix a replica missed; optionally audit."""
        from_version = replica.service.version
        missed = self._journal[from_version - 1:]
        for delta in missed:
            replica.service.apply_updates(delta)
        replica.version = replica.service.version
        self._counts.catchup_batches += len(missed)
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
            graph, version = None, 1  # a fresh graph from the trace
        replica.service = build_service(
            self._trace, graph=graph, initial_version=version
        )
        for name, query_class, params in self._standing_specs:
            replica.service.register_standing(name, query_class, params)
        audit_ok = self._catch_up(replica, audit=True)
        if not audit_ok:
            self._counts.audits_failed += 1
            replica.service = None
            return False
        replica.dead = False
        replica.lag_remaining = 0
        replica.consecutive_failures = 0
        if replica.breaker_state != BREAKER_CLOSED:
            self._set_breaker(replica, BREAKER_CLOSED)
        replica.version = replica.service.version
        self._checkpoint(replica)
        self._counts.recoveries += 1
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
        return replace(
            self._counts,
            graph_version=self.version,
            simulated_time=self._clock,
            retry_budget_left=self._retry_budget,
            latencies=list(self._counts.latencies),
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
