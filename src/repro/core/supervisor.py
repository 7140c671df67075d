"""Self-healing supervision of worker compute (Pregel-style recovery).

The engine routes every worker compute interval through
:meth:`Supervisor.attempt`: a raised
:class:`~repro.errors.TransientWorkerFailure` is retried in place with
capped exponential backoff — the backoff is *simulated* time charged to
the worker, so retries cost wall-clock in the metrics but the schedule
stays deterministic. A :class:`~repro.errors.FatalWorkerFailure` (or a
transient one that exhausts its retries) escapes to the fixpoint loop,
where the engine performs in-run checkpoint recovery (see
``GrapeEngine._recover``) under this supervisor's recovery cap.

Retrying IncEval on partially-updated state is sound for the same
reason checkpoint recovery is: for monotone PIE programs, re-applying
messages and re-running the incremental step are idempotent under the
declared aggregate function.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FatalWorkerFailure, WorkerFailure
from repro.runtime.metrics import FaultCounters


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the retry/recovery behaviour.

    Attributes:
        max_retries: transient failures absorbed per compute interval
            before escalating to a fatal loss.
        backoff_base: simulated seconds charged for the first retry;
            doubles each retry.
        backoff_cap: ceiling on one retry's backoff.
        max_recoveries: checkpoint recoveries allowed per run before
            the engine gives up (guards against a fault schedule that
            kills every re-execution).
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    max_recoveries: int = 8


class Supervisor:
    """Wraps worker computes; counts what it absorbs into the metrics."""

    def __init__(
        self,
        policy: SupervisionPolicy,
        counters: FaultCounters,
        tracer=None,
        checker=None,
    ) -> None:
        self.policy = policy
        self.counters = counters
        self.tracer = tracer
        #: the run's :class:`~repro.core.assurance.MonotonicityChecker`
        #: (None = unchecked); the engine books op replies' tallies here.
        self.checker = checker
        self._recoveries = 0

    def attempt(self, step, worker: int, fn):
        """Run ``fn`` inside ``step.compute(worker)``, retrying transients.

        Returns ``fn()``'s value. Raises
        :class:`~repro.errors.FatalWorkerFailure` once the worker is
        considered permanently lost (fatal failure, or retries
        exhausted); other exceptions propagate untouched.
        """
        retries = 0
        while True:
            try:
                with step.compute(worker):
                    return fn()
            except WorkerFailure as failure:
                if failure.fatal:
                    raise
                retries += 1
                if retries > self.policy.max_retries:
                    raise FatalWorkerFailure(
                        f"worker {worker} still failing after "
                        f"{self.policy.max_retries} retries: {failure}",
                        worker=worker,
                        superstep=failure.superstep,
                    ) from failure
                backoff = min(
                    self.policy.backoff_base * 2 ** (retries - 1),
                    self.policy.backoff_cap,
                )
                step.charge(worker, backoff)
                self.counters.retries += 1
                self.counters.backoff_time += backoff
                if self.tracer is not None:
                    # Same branch as the counter bump: the chaos test
                    # reconciles retry spans 1:1 against FaultCounters.
                    self.tracer.retry(
                        worker,
                        step.index,
                        step.phase,
                        attempt=retries,
                        backoff=backoff,
                    )

    def begin_recovery(self, failure: WorkerFailure) -> None:
        """Account one checkpoint recovery; enforce the recovery cap."""
        self._recoveries += 1
        if self._recoveries > self.policy.max_recoveries:
            raise FatalWorkerFailure(
                f"giving up after {self.policy.max_recoveries} checkpoint "
                f"recoveries; last failure: {failure}",
                worker=failure.worker,
                superstep=failure.superstep,
            ) from failure
        self.counters.recoveries += 1
