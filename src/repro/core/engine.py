"""GrapeEngine: the simultaneous fixed-point computation of Section 2.2.

Workflow (Fig. 1):

1. **PEval** — superstep 0: every worker runs the program's PEval on its
   fragment; changed update parameters are sent to the coordinator.
2. **IncEval** — repeated supersteps: the coordinator aggregates incoming
   candidate values per vertex (using the declared aggregate function)
   and routes them to every fragment hosting the vertex; workers whose
   parameters actually changed run IncEval and ship new changes back.
3. **Assemble** — when no parameter changes anywhere, the coordinator
   pulls the partial answers and combines them.

Two routing modes are provided: ``"coordinator"`` (the paper's workflow,
messages travel via P0) and ``"direct"`` (an extension mirroring
libgrape-lite: workers send changed border values to the fragments
hosting them and P0 nothing). Every message is a batch of update
parameters; the run ends when none is pending and no worker is active.

Execution backends: worker-local steps (PEval, IncEval, the ΔG repair
hooks) are expressed as named ops and dispatched through an
:class:`~repro.runtime.backends.base.ExecutionBackend` — in-process on
the virtual-time simulator (default) or on a pool of OS worker
processes (``ProcessBackend``) that own pickled fragment copies and
exchange border messages through this coordinator each superstep. Both
run the same op code, so answers and metrics are byte-identical; only
the process backend additionally reports real wall-clock compute.

Supervision (the chaos runtime): every worker compute interval runs
under a :class:`~repro.core.supervisor.Supervisor`. Transient worker
failures are retried in place with deterministic simulated backoff; a
fatal loss during the IncEval fixpoint triggers *in-run* checkpoint
recovery — reload the newest snapshot, re-ship border values (monotone
re-convergence, as in ``resume_from_checkpoint``) and continue — so the
caller gets the answer without touching an exception. Without a
checkpoint policy a fatal loss fails fast, naming the unrecoverable
rounds. Pass ``faults=``
:class:`~repro.runtime.faults.FaultPlan` to inject failures
deterministically (simulated backend only).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Generic, Hashable

from repro.core.assurance import MonotonicityChecker
from repro.core.delta import DeltaRepairStats, EngineState
from repro.core.partial_order import UNORDERED
from repro.core.pie import P, PIEProgram, Q, R
from repro.core.supervisor import SupervisionPolicy, Supervisor
from repro.core.termination import FixpointGuard
from repro.errors import (
    FatalWorkerFailure,
    ProgramError,
    StaleStateError,
    StorageError,
    WorkerFailure,
)
from repro.graph.fragment import FragmentedGraph
from repro.runtime.backends import (
    ExecutionBackend,
    SimulatedBackend,
    WorkerCall,
)
from repro.runtime.cluster import Cluster
from repro.runtime.costmodel import CostModel
from repro.runtime.message import COORDINATOR
from repro.runtime.metrics import RunMetrics

VertexId = Hashable

#: Superstep engine modes — a clock policy, nothing else: ``"strict"``
#: is the BSP lockstep of the paper; ``"relaxed"`` executes strict
#: direct routing's sends against per-worker virtual clocks instead of
#: a barrier (programs whose aggregator declares a partial order only).
MODES = ("strict", "relaxed")


@dataclass
class RoundInfo:
    """Per-IncEval-round trace entry (feeds the bounded-IncEval bench)."""

    round_index: int
    params_shipped: int
    params_applied: int
    active_workers: int


@dataclass
class GrapeResult(Generic[R]):
    """Outcome of one GRAPE run: answer + metering + fixpoint trace."""

    answer: R
    metrics: RunMetrics
    rounds: list[RoundInfo] = field(default_factory=list)
    checker: MonotonicityChecker | None = None
    #: set when run(..., keep_state=True): resumable fixpoint state for
    #: run_incremental after graph updates.
    state: object | None = None
    #: set by run_incremental: what the ΔG repair did
    #: (:class:`~repro.core.delta.DeltaRepairStats`).
    repair: DeltaRepairStats | None = None

    @property
    def num_supersteps(self) -> int:
        """Number of BSP supersteps executed."""
        return self.metrics.num_supersteps

    @property
    def total_time(self) -> float:
        """Total simulated wall-clock time in seconds."""
        return self.metrics.total_time


class GrapeEngine:
    """Runs PIE programs over a fragmented graph on a cluster backend.

    Args:
        fragmented: the partitioned graph (one fragment per worker).
        cost_model: simulated-cluster performance parameters.
        check_monotonic: verify every parameter write against the
            aggregator's partial order (strict: raise on violation) —
            on every backend and every kind of run; the result's
            ``checker`` reports what that run saw.
        max_supersteps: fixed-point cap for non-monotonic programs.
        routing: ``"coordinator"`` (paper default) or ``"direct"``.
        mode: ``"strict"`` (BSP lockstep, default) or ``"relaxed"`` —
            the same fixpoint loop over the same direct-routing
            mailboxes (peer-to-peer whatever ``routing`` says), but
            each IncEval round is a *wave* timed on per-worker virtual
            clocks: a worker starts once its own mail has arrived
            instead of waiting for the slowest lane. Termination is the
            ordinary "nothing pending, no worker active" test. Relaxed
            mode is restricted at bind time to programs whose declared
            aggregator carries a partial order (anything but
            ``UNORDERED`` — the Assurance Theorem's precondition, and
            the declaration ``check_monotonic`` enforces per write). It
            executes strict ``routing="direct"``'s sends in order, so
            answers, traffic, repair stats, checkpoints and injected
            faults are byte-identical; only virtual time differs.
        supervision: retry/backoff/recovery knobs (defaults to
            :class:`~repro.core.supervisor.SupervisionPolicy`).
        repair_fraction: fixed threshold — non-monotone repair falls
            back to a full recompute when any fragment's invalidated
            region exceeds this fraction of its local vertices.
        backend: an :class:`~repro.runtime.backends.base.
            ExecutionBackend` built over the *same* ``fragmented``;
            defaults to a fresh in-process
            :class:`~repro.runtime.backends.simulated.SimulatedBackend`.
    """

    def __init__(
        self,
        fragmented: FragmentedGraph,
        cost_model: CostModel | None = None,
        check_monotonic: bool = False,
        strict_monotonic: bool = True,
        max_supersteps: int = 10_000,
        routing: str = "coordinator",
        supervision: SupervisionPolicy | None = None,
        repair_fraction: float = 0.5,
        tracer=None,
        backend: ExecutionBackend | None = None,
        mode: str = "strict",
    ) -> None:
        if routing not in ("coordinator", "direct"):
            raise ProgramError(f"unknown routing mode {routing!r}")
        if mode not in MODES:
            raise ProgramError(
                f"unknown superstep mode {mode!r}; choose from "
                + ", ".join(MODES)
            )
        if not 0.0 <= repair_fraction <= 1.0:
            raise ProgramError(
                f"repair_fraction must be in [0, 1], got {repair_fraction!r}"
            )
        if backend is None:
            backend = SimulatedBackend(fragmented)
        elif backend.fragmented is not fragmented:
            raise ProgramError(
                "backend was built over a different FragmentedGraph than "
                "this engine's"
            )
        self.fragmented = fragmented
        self.cost_model = cost_model or CostModel()
        self.mode = mode
        self.check_monotonic = check_monotonic
        self.strict_monotonic = strict_monotonic
        self.max_supersteps = max_supersteps
        self.routing = routing
        #: relaxed waves always route peer-to-peer, whatever ``routing``.
        self._direct = routing == "direct" or mode == "relaxed"
        self.supervision = supervision or SupervisionPolicy()
        self.repair_fraction = repair_fraction
        self.backend = backend
        #: Optional :class:`~repro.obs.Tracer` — a pure observer; never
        #: feeds back into the computation (see tests/property purity).
        self.tracer = tracer

    # ------------------------------------------------------------------
    def run(
        self,
        program: PIEProgram[Q, P, R],
        query: Q,
        keep_state: bool = False,
        checkpoint=None,
        faults=None,
    ) -> GrapeResult[R]:
        """Compute ``Q(G)`` = Assemble(fixpoint(PEval, IncEval)).

        With ``keep_state=True`` the result carries the per-fragment
        partial answers and parameter stores so the fixed point can be
        resumed after edge insertions via :meth:`run_incremental`.
        With a :class:`~repro.core.checkpoint.CheckpointPolicy` the
        engine snapshots its state every ``policy.every`` IncEval rounds
        *and* recovers fatal worker losses in-run from the newest
        snapshot (see module docstring). With a
        :class:`~repro.runtime.faults.FaultPlan` in ``faults`` the run
        executes under that plan's deterministic fault schedule.
        """
        cluster, supervisor = self._start_run("grape", program, query, faults)
        n = cluster.num_workers

        self.backend.bind(program, query, self._audit)

        # ---------------- Superstep 0: PEval ----------------
        # Transient failures are retried in place; a fatal loss here
        # propagates (no snapshot of this run can exist before round 1).
        self._ship_step(
            cluster, supervisor, "peval",
            [WorkerCall(wid, "peval") for wid in range(n)],
        )

        # ---------------- IncEval rounds ----------------
        rounds = self._fixpoint(
            cluster, program, query, checkpoint, supervisor
        )

        answer = self._assemble(cluster, program, query, supervisor)

        state = self._snapshot(program) if keep_state else None
        if self.tracer is not None:
            self.tracer.run_end(cluster.metrics)
        return GrapeResult(
            answer=answer,
            metrics=cluster.metrics,
            rounds=rounds,
            checker=supervisor.checker,
            state=state,
        )

    # ------------------------------------------------------------------
    def apply_delta(self, delta) -> dict[int, list]:
        """Route a ΔG batch into the fragments and sync backend workers.

        Returns the fid -> routed-ops map (what
        :func:`~repro.core.delta.apply_delta` returns) — pass it as
        ``touched=`` to :meth:`run_incremental` calls repairing from
        this batch. Callers that mutate the fragments *behind* the
        engine would desync process-backend workers; this is the one
        sanctioned mutation path.
        """
        from repro.core.delta import apply_delta

        effects: dict[int, list] = {}
        touched = apply_delta(self.fragmented, delta, effects=effects)
        self.backend.sync_effects(effects)
        return touched

    # ------------------------------------------------------------------
    def run_incremental(
        self,
        program: PIEProgram[Q, P, R],
        query: Q,
        state,
        delta,
        checkpoint=None,
        faults=None,
        touched=None,
    ) -> GrapeResult[R]:
        """Resume a fixed point after a ΔG batch (insert/delete/reweight).

        ``state`` is the :class:`~repro.core.delta.EngineState` from a
        prior ``run(..., keep_state=True)`` of the *same* program and
        query over *this* engine's fragmentation. The fragments are
        mutated in place to reflect ``delta`` (anything
        ``GraphDelta.coerce`` accepts, including plain insertion lists).
        Each op is classified by ``program.classify_update``:

        * **monotone-safe** ops repair through ``program.on_graph_update``
          and resume the old fixed point directly;
        * **unsafe** ops (deletions, order-breaking reweights) go through
          invalidate-and-recompute: seed vertices from
          ``program.delta_seeds``, close them over value dependencies
          (``program.invalidated_region``) *across* fragments, reset the
          region's update parameters to the order's default, and re-derive
          it with ``program.repair_partial`` — unless any fragment's
          region exceeds ``repair_fraction`` of its local vertices, in
          which case the whole fixpoint restarts from PEval over the
          mutated graph.

        The ordinary IncEval fixpoint and Assemble follow either way;
        the result's ``repair`` field records which path ran.
        ``checkpoint`` and ``faults`` behave exactly as in :meth:`run`.

        ``touched`` is the fragment-id -> ops mapping returned by a prior
        :meth:`apply_delta` of the *same batch*: pass it when the delta
        was already routed into the fragments, e.g. by a serving layer
        repairing several standing queries from one mutation —
        re-applying would duplicate the edges' border bookkeeping. Left
        as ``None`` the engine routes ``delta`` itself.

        A state produced by a different program, fragment count, or
        aggregator raises :class:`~repro.errors.StaleStateError` up
        front instead of failing deep inside the fixpoint.
        """
        self._check_state(program, query, state)
        cluster, supervisor = self._start_run(
            "grape-inc", program, query, faults
        )
        n = cluster.num_workers
        repair = DeltaRepairStats()

        if touched is None:
            touched = self.apply_delta(delta)

        self.backend.resume(program, query, state, self._audit)

        # The delta can create fresh border vertices; their update
        # parameters are declared with the spec default before programs
        # touch them.
        self.backend.invoke_all(
            [WorkerCall(wid, "declare_fresh") for wid in range(n)]
        )

        safe: dict[int, list] = {}
        unsafe: dict[int, list] = {}
        safe_keys: set = set()
        unsafe_keys: set = set()
        for wid, ops in touched.items():
            for op in ops:
                if program.classify_update(query, op):
                    safe.setdefault(wid, []).append(op)
                    safe_keys.add((op.kind, op.src, op.dst))
                else:
                    unsafe.setdefault(wid, []).append(op)
                    unsafe_keys.add((op.kind, op.src, op.dst))
        repair.safe_ops = len(safe_keys)
        repair.unsafe_ops = len(unsafe_keys)

        full_restart = False
        if unsafe:
            invalid = self._invalidate(
                cluster, program, query, unsafe, supervisor, repair
            )
            repair.fragments = {
                wid: len(region) for wid, region in invalid.items() if region
            }
            repair.invalidated = sum(repair.fragments.values())
            full_restart = any(
                len(region)
                > self.repair_fraction
                * max(1, self.fragmented.fragments[wid].graph.num_vertices)
                for wid, region in invalid.items()
            )
            repair.mode = "full" if full_restart else "scoped"

        if full_restart:
            # The invalidated region dominates the graph: re-deriving it
            # piecemeal would cost more than starting over. Fresh stores,
            # fresh PEval over the already-mutated fragments.
            self._restart_peval(cluster, supervisor)
        else:
            if unsafe:
                resets = self.backend.invoke_all(
                    [
                        WorkerCall(wid, "reset_params", {"region": region})
                        for wid, region in invalid.items()
                    ]
                )
                repair.resets = sum(n for (n,) in resets.values())
                self._ship_step(
                    cluster, supervisor, "repair",
                    [
                        WorkerCall(wid, "repair", {"region": set(region)})
                        for wid, region in sorted(invalid.items())
                        if region
                    ],
                )
            if safe:
                self._ship_step(
                    cluster, supervisor, "update",
                    [
                        WorkerCall(wid, "update", {"ops": local_ops})
                        for wid, local_ops in sorted(safe.items())
                    ],
                )

        rounds = self._fixpoint(
            cluster, program, query, checkpoint, supervisor
        )

        answer = self._assemble(cluster, program, query, supervisor)

        # The caller's EngineState keeps tracking the live fixpoint, as
        # it always has (its lists are updated in place); the result
        # carries a fresh EngineState sharing those lists.
        fresh = self._snapshot(program)
        state.partials[:] = fresh.partials
        state.params[:] = fresh.params
        if self.tracer is not None:
            self.tracer.run_end(cluster.metrics)
        return GrapeResult(
            answer=answer,
            metrics=cluster.metrics,
            rounds=rounds,
            checker=supervisor.checker,
            state=replace(
                fresh, partials=state.partials, params=state.params
            ),
            repair=repair,
        )

    def _invalidate(
        self,
        cluster: Cluster,
        program: PIEProgram[Q, P, R],
        query: Q,
        unsafe: dict[int, list],
        supervisor: Supervisor,
        repair: DeltaRepairStats,
    ) -> dict[int, set]:
        """Close the invalidated region across fragments (BSP fixpoint).

        Each fragment seeds its region from its local unsafe ops, closes
        it over local value dependencies, and ships border members to
        every other hosting fragment; receivers expand the region
        locally and forward any growth. Terminates because regions only
        grow and are bounded by the hosted vertex sets. Returns
        fid -> invalidated local vertices.
        """
        invalid: dict[int, set] = {wid: set() for wid in unsafe}
        sent = False

        def _ship(step, wid: int, verts: set) -> bool:
            by_dst: dict[int, set] = {}
            for v in verts:
                for fid in self.fragmented.hosts(v):
                    if fid != wid:
                        by_dst.setdefault(fid, set()).add(v)
            for fid, vs in sorted(by_dst.items()):
                step.send(wid, fid, {"__invalidate__": sorted(vs, key=repr)})
            return bool(by_dst)

        with cluster.superstep("invalidate") as step:

            def _seeded(wid: int, region: set) -> None:
                nonlocal sent
                invalid[wid] |= region
                sent |= _ship(step, wid, region)

            self.backend.execute(
                step,
                supervisor,
                [
                    WorkerCall(wid, "seed_region", {"ops": ops})
                    for wid, ops in sorted(unsafe.items())
                ],
                on_result=_seeded,
            )
        repair.invalidation_rounds += 1

        while sent:
            sent = False
            with cluster.superstep("invalidate") as step:
                calls = []
                for wid in range(cluster.num_workers):
                    messages = cluster.receive(wid)
                    if not messages:
                        continue
                    incoming: set = set()
                    for msg in messages:
                        incoming.update(msg.payload.get("__invalidate__", ()))
                    fresh = incoming - invalid.get(wid, set())
                    if not fresh:
                        continue
                    calls.append(
                        WorkerCall(wid, "expand_region", {"fresh": fresh})
                    )

                def _expanded(wid: int, region: set) -> None:
                    nonlocal sent
                    grow = region - invalid.setdefault(wid, set())
                    if not grow:
                        return
                    invalid[wid] |= grow
                    sent |= _ship(step, wid, grow)

                self.backend.execute(
                    step, supervisor, calls, on_result=_expanded
                )
            repair.invalidation_rounds += 1
        return invalid

    def _restart_peval(
        self,
        cluster: Cluster,
        supervisor: Supervisor,
    ) -> None:
        """Full-recompute fallback: fresh parameter stores + PEval.

        Replaces every worker's store over the mutated fragments; the
        caller re-enters the ordinary IncEval fixpoint.
        """
        n = cluster.num_workers
        self.backend.invoke_all(
            [
                WorkerCall(wid, "rebind_params", {"audit": self._audit})
                for wid in range(n)
            ]
        )
        self._ship_step(
            cluster, supervisor, "peval",
            [WorkerCall(wid, "peval") for wid in range(n)],
        )

    # ------------------------------------------------------------------
    def resume_from_checkpoint(
        self,
        program: PIEProgram[Q, P, R],
        query: Q,
        checkpoint,
        faults=None,
    ) -> GrapeResult[R]:
        """Recover a crashed fixed point from its newest DFS snapshot.

        Recovery for monotone programs is re-ship-and-reconverge: every
        worker re-sends the *current* value of every declared border
        variable (idempotent under the aggregate function), replacing
        whatever messages were in flight when the run died; the ordinary
        IncEval fixpoint then finishes the remaining rounds. The cost of
        the crash is bounded by ``policy.every`` rounds of lost work.

        The checkpoint policy stays live during recovery: the resumed
        fixpoint keeps snapshotting every ``policy.every`` rounds
        (numbered from the reloaded round), so a second crash while
        recovering costs bounded work too.
        """
        ckpt_round, state = checkpoint.load_latest()
        cluster, supervisor = self._start_run(
            "grape-recover", program, query, faults
        )

        self.backend.resume(program, query, state, self._audit)
        self._reship_borders(cluster, supervisor)

        rounds = self._fixpoint(
            cluster, program, query, checkpoint, supervisor,
            done_rounds=ckpt_round,
        )

        answer = self._assemble(cluster, program, query, supervisor)
        state = self._snapshot(program)
        if self.tracer is not None:
            self.tracer.run_end(cluster.metrics)
        return GrapeResult(
            answer=answer,
            metrics=cluster.metrics,
            rounds=rounds,
            checker=supervisor.checker,
            state=state,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_state(self, program: PIEProgram, query, state) -> None:
        """Reject a resume state that cannot belong to this run.

        Checks provenance (program name, fragment count) when the state
        records it, and structural fit (store count, aggregator) always —
        states unpickled from pre-provenance checkpoints carry the
        defaults and are validated structurally only.
        """
        if not isinstance(state, EngineState):
            raise StaleStateError(
                "run_incremental needs the EngineState from a prior "
                f"run(..., keep_state=True); got {type(state).__name__}"
            )
        n = self.fragmented.num_fragments
        if state.program_name and state.program_name != program.name:
            raise StaleStateError(
                f"stale EngineState: produced by program "
                f"{state.program_name!r}, but resuming {program.name!r} — "
                "rerun with keep_state=True under the current program"
            )
        if state.num_fragments and state.num_fragments != n:
            raise StaleStateError(
                f"stale EngineState: produced over {state.num_fragments} "
                f"fragments, but this engine has {n} — the graph was "
                "repartitioned; rerun with keep_state=True"
            )
        if len(state.params) != n or len(state.partials) != n:
            raise StaleStateError(
                f"stale EngineState: carries {len(state.params)} parameter "
                f"stores / {len(state.partials)} partials for "
                f"{n} fragments"
            )
        spec = program.param_spec(query)
        for store in state.params:
            if store.aggregator.name != spec.aggregator.name:
                raise StaleStateError(
                    "stale EngineState: parameter store aggregator "
                    f"{store.aggregator.name!r} does not match the "
                    f"program's declared {spec.aggregator.name!r}"
                )

    @property
    def _audit(self) -> bool | None:
        """What every state-installing op is told about this engine's
        monotonicity check: None = unchecked, else its strictness."""
        return self.strict_monotonic if self.check_monotonic else None

    def _start_run(
        self, kind: str, program: PIEProgram, query, faults
    ) -> tuple[Cluster, Supervisor]:
        """Gate the run, then build its cluster (with the fault plan's
        injector, if any) and the supervisor watching it (with the run's
        monotonicity checker, if the engine checks).

        The relaxed gate: stale reads re-converge to the same fixpoint
        only when values move one way along a partial order (the
        Assurance Theorem's precondition). The program's declaration
        says whether they do — the order ``MonotonicityChecker`` holds
        every write to — so ``UNORDERED`` is refused and nothing else.
        """
        aggregator = program.param_spec(query).aggregator
        if self.mode == "relaxed":
            if aggregator.order is UNORDERED:
                raise ProgramError(
                    f"mode='relaxed' requires an aggregator with a partial "
                    f"order, but {type(program).__name__} declares "
                    f"{aggregator.name!r}, which is unordered (the "
                    "Assurance Theorem's monotonicity precondition "
                    "fails); run this program with mode='strict'"
                )
        engine_name = f"{kind}[{program.name}]"
        if faults is not None and not self.backend.supports_faults:
            raise ProgramError(
                f"fault injection requires the simulated backend; the "
                f"{self.backend.name!r} backend runs real worker "
                "processes the injector cannot interpose on"
            )
        injector = faults.injector() if faults is not None else None
        if self.tracer is not None:
            self.tracer.run_begin(engine_name, self.fragmented.num_fragments)
        cluster = Cluster(
            self.fragmented.num_fragments,
            self.cost_model,
            engine_name=engine_name,
            injector=injector,
            tracer=self.tracer,
            measure_wall=self.backend.measures_wall,
            mode=self.mode,
        )
        checker = None
        if self.check_monotonic:
            checker = MonotonicityChecker(
                aggregator.order, self.strict_monotonic
            )
        return cluster, Supervisor(
            self.supervision,
            cluster.metrics.faults,
            tracer=self.tracer,
            checker=checker,
        )

    def _fixpoint(
        self,
        cluster: Cluster,
        program: PIEProgram[Q, P, R],
        query: Q,
        checkpoint,
        supervisor: Supervisor,
        done_rounds: int = 0,
    ) -> list[RoundInfo]:
        """Drive IncEval rounds to the fixed point, healing fatal losses.

        Worker state lives in the backend and is mutated in place
        (including wholesale replacement on recovery); the returned
        trace is the full one — the re-executed rounds after a recovery
        appear again, which is the honest account of what the cluster
        computed. Rounds are numbered from ``done_rounds`` (a resumed
        checkpoint's). On a relaxed cluster each round is a wave timed
        on the per-worker clocks; the loop is otherwise the same.
        """
        guard = FixpointGuard(
            max_supersteps=self.max_supersteps, rounds=done_rounds
        )
        rounds: list[RoundInfo] = []
        n = cluster.num_workers
        relaxed = cluster.clocks is not None
        while True:
            # The coordinator's inactivity test: no mail anywhere, no
            # worker with local work left.
            if not cluster.mpi.pending() and not any(
                self.backend.is_active(wid) for wid in range(n)
            ):
                return rounds
            try:
                with cluster.superstep("inceval", relaxed=relaxed) as step:
                    shipped, applied, active = self._inceval_round(
                        cluster, step, program, query, supervisor
                    )
            except WorkerFailure as failure:
                if not failure.fatal:
                    raise
                self._recover(
                    cluster, failure, checkpoint, guard, supervisor
                )
                continue
            guard.record_round()
            rounds.append(
                RoundInfo(
                    round_index=guard.rounds,
                    params_shipped=shipped,
                    params_applied=applied,
                    active_workers=active,
                )
            )
            if checkpoint is not None and guard.rounds % checkpoint.every == 0:
                checkpoint.save(guard.rounds, self._snapshot(program))

    def _recover(
        self,
        cluster: Cluster,
        failure: WorkerFailure,
        checkpoint,
        guard: FixpointGuard,
        supervisor: Supervisor,
    ) -> None:
        """In-run recovery from a fatal worker loss mid-fixpoint."""
        aborted_round = guard.rounds + 1
        if checkpoint is None:
            raise FatalWorkerFailure(
                f"{failure}; IncEval rounds 1..{aborted_round} are "
                "unrecoverable: no checkpoint policy configured (pass "
                "checkpoint=CheckpointPolicy(...) to recover in-run)",
                worker=failure.worker,
                superstep=failure.superstep,
            ) from failure
        try:
            ckpt_round, state = checkpoint.load_latest()
        except StorageError as exc:
            raise FatalWorkerFailure(
                f"{failure}; IncEval rounds 1..{aborted_round} are "
                f"unrecoverable: no snapshot persisted yet ({exc})",
                worker=failure.worker,
                superstep=failure.superstep,
            ) from failure
        supervisor.begin_recovery(failure)
        # Completed-but-uncheckpointed rounds plus the aborted one.
        lost = guard.rewind(ckpt_round) + 1
        supervisor.counters.rounds_lost += lost
        if self.tracer is not None:
            # Emitted next to the rounds_lost accounting so recovery
            # spans reconcile exactly with FaultCounters.
            self.tracer.recovery(
                failure.worker,
                failure.superstep,
                resumed_round=ckpt_round,
                rounds_lost=lost,
            )
        cluster.mpi.reset_in_flight()
        self.backend.push_state(state.partials, state.params, self._audit)
        self._reship_borders(cluster, supervisor)
        supervisor.counters.recovery_supersteps += 1

    def _reship_borders(
        self,
        cluster: Cluster,
        supervisor: Supervisor,
    ) -> None:
        """One "recover" superstep: re-send every non-default border value."""
        self._ship_step(
            cluster, supervisor, "recover",
            [WorkerCall(wid, "reship") for wid in range(cluster.num_workers)],
        )

    def _assemble(
        self,
        cluster: Cluster,
        program: PIEProgram[Q, P, R],
        query: Q,
        supervisor: Supervisor,
    ) -> R:
        """Final superstep: the coordinator combines partial answers."""
        partials = self.backend.partials()
        with cluster.superstep("assemble") as step:
            return supervisor.attempt(
                step, COORDINATOR, lambda: program.assemble(query, partials)
            )

    def _ship_step(
        self, cluster: Cluster, supervisor: Supervisor, phase: str, calls
    ) -> None:
        """One barrier superstep: run ``calls``, book the work each
        charged and the writes each audited, ship what each changed."""
        with cluster.superstep(phase) as step:

            def _done(wid: int, result) -> None:
                changes, work, audit = result
                step.work(wid, work)
                if audit is not None:
                    supervisor.checker.absorb(audit)
                if changes:
                    self._emit(step, wid, changes)

            self.backend.execute(step, supervisor, calls, on_result=_done)

    def _snapshot(self, program: PIEProgram) -> EngineState:
        """The backend's live fixpoint as a resumable :class:`EngineState`."""
        partials, params = self.backend.pull_state()
        return EngineState(
            partials=partials,
            params=params,
            program_name=program.name,
            num_fragments=self.fragmented.num_fragments,
        )

    def _emit(self, step, wid: int, changes: dict[VertexId, object]) -> None:
        """Send changed parameters to P0 (coordinator routing) or to
        every other hosting fragment — the mode never shapes a send."""
        if not self._direct:
            step.send(wid, COORDINATOR, changes)
            return
        by_dst: dict[int, dict[VertexId, object]] = {}
        for v, value in changes.items():
            for fid in self.fragmented.hosts(v):
                if fid != wid:
                    by_dst.setdefault(fid, {})[v] = value
        for fid, batch in by_dst.items():
            step.send(wid, fid, batch)

    def _inceval_round(
        self,
        cluster: Cluster,
        step,
        program: PIEProgram[Q, P, R],
        query: Q,
        supervisor: Supervisor,
    ) -> tuple[int, int, int]:
        """One superstep: route messages, run IncEval, ship new changes.

        Returns (params shipped by workers this round, params applied,
        active worker count). Under direct routing the mail is already
        in the workers' inboxes and P0 has none. Each worker's
        apply+IncEval runs under the supervisor: a retry re-applies its
        messages (idempotent under the aggregate function) and re-runs
        IncEval.
        """
        n = cluster.num_workers
        aggregator = program.param_spec(query).aggregator

        if not self._direct:
            # (a) P0 aggregates per vertex and routes to hosting fragments.
            with step.compute(COORDINATOR):
                inbox = cluster.receive(COORDINATOR)
                merged: dict[VertexId, object] = {}
                proposals: dict[VertexId, dict[int, object]] = {}
                for msg in inbox:
                    for v, value in msg.payload.items():
                        if v in merged:
                            merged[v] = aggregator.resolve(merged[v], value)
                        else:
                            merged[v] = value
                        proposals.setdefault(v, {})[msg.src] = value
                by_dst: dict[int, dict[VertexId, object]] = {}
                for v, value in merged.items():
                    for fid in self.fragmented.hosts(v):
                        if proposals[v].get(fid) == value:
                            continue  # that worker proposed it: no news
                        by_dst.setdefault(fid, {})[v] = value
                for fid, batch in by_dst.items():
                    step.send(COORDINATOR, fid, batch)
            step.deliver()

        # (b) workers apply M_i and run IncEval.
        shipped = 0
        applied = 0
        active = 0
        calls = []
        was_active: dict[int, bool] = {}
        clocks = cluster.clocks
        for wid in range(n):
            messages = cluster.receive(wid)
            locally_active = self.backend.is_active(wid)
            if not messages and not locally_active:
                continue
            was_active[wid] = locally_active
            if clocks is not None:
                # Relaxed wave: this worker starts when its own mail has
                # arrived, not when the slowest lane reaches a barrier.
                clocks.open_wave(wid, messages)
                if self.tracer is not None:
                    for msg in messages:
                        self.tracer.drain(wid, msg.src, 1, msg.size)
            calls.append(
                WorkerCall(
                    wid,
                    "inceval",
                    {
                        "payloads": [msg.payload for msg in messages],
                        "locally_active": locally_active,
                    },
                )
            )

        def _shipped(wid: int, result) -> None:
            nonlocal shipped, applied, active
            changed, changes, work, audit = result
            step.work(wid, work)
            if audit is not None:
                supervisor.checker.absorb(audit)
            applied += len(changed)
            if changed or was_active[wid]:
                active += 1
            if changes:
                shipped += len(changes)
                self._emit(step, wid, changes)

        self.backend.execute(step, supervisor, calls, on_result=_shipped)
        return shipped, applied, active
