"""Exception hierarchy for the GRAPE reproduction.

All library errors derive from :class:`GrapeError` so callers can catch a
single base class. Subclasses identify the subsystem that raised them.
:func:`check_fields` turns a wrongly typed field of outside input (a
workload trace, a fault plan) into one of them.
"""

from __future__ import annotations


class GrapeError(Exception):
    """Base class for every error raised by this library."""


class GraphError(GrapeError):
    """Invalid graph construction or access (unknown vertex, bad edge...)."""


class PartitionError(GrapeError):
    """A partition strategy was misused or produced an invalid partition."""


class EngineRuntimeError(GrapeError):
    """The simulated cluster runtime detected an inconsistency."""


class ProgramError(GrapeError):
    """A PIE / vertex / block program violated its contract."""


class AnalysisError(ProgramError):
    """grape-lint rejected a PIE program (or could not analyze it).

    Raised by the static verifier in :mod:`repro.analysis` when a
    program carries error-severity findings — the static counterpart of
    :class:`MonotonicityError` — or when a source file cannot be parsed.
    """


class StaleStateError(ProgramError):
    """An :class:`~repro.core.delta.EngineState` does not fit.

    Raised by :meth:`~repro.core.engine.GrapeEngine.run_incremental` when
    the state handed to it was produced by a different program, a
    different fragmentation (fragment count mismatch), or an
    incompatible aggregator — resuming from it would corrupt the
    fixpoint far from the actual mistake.
    """


class MonotonicityError(ProgramError):
    """An update parameter moved against its declared partial order.

    Raised by the assurance checker when strict verification is enabled;
    this is the runtime counterpart of the paper's Assurance Theorem
    precondition.
    """


class WorkerFailure(EngineRuntimeError):
    """A simulated worker died while computing a superstep.

    The supervisor in :class:`~repro.core.engine.GrapeEngine` reacts by
    failure class: transient failures are retried with capped
    exponential backoff (simulated time); fatal failures trigger
    checkpoint recovery, or fail fast when no policy is installed.

    Attributes:
        worker: rank of the lost worker (None if unknown).
        superstep: superstep index at which the failure struck.
    """

    #: Whether the worker is permanently lost (vs worth retrying).
    fatal = False

    def __init__(
        self,
        message: str,
        worker: int | None = None,
        superstep: int | None = None,
    ) -> None:
        super().__init__(message)
        self.worker = worker
        self.superstep = superstep


class TransientWorkerFailure(WorkerFailure):
    """A worker failure expected to heal on retry (flaky node, OOM kill)."""


class FatalWorkerFailure(WorkerFailure):
    """A worker is permanently lost; its in-memory state is gone."""

    fatal = True


class TransportError(EngineRuntimeError):
    """The message layer detected corruption or gave up on delivery.

    Raised when a payload checksum mismatch is found without a retained
    copy to retransmit, or when a message stays undeliverable past the
    controller's retransmission cap (persistent drop/corruption).
    """


class StorageError(GrapeError):
    """Simulated-DFS or serialization failure."""


class QueryError(GrapeError):
    """Malformed query or unknown query class submitted to the engine."""


class ServiceError(GrapeError):
    """The query-serving layer (:mod:`repro.service`) rejected a request."""


class ServiceOverloadedError(ServiceError):
    """The admission queue is full; the request was shed, not queued.

    Backpressure made typed: clients catch this and retry later instead
    of silently growing an unbounded queue.

    Attributes:
        queue_depth: pending requests at the moment of rejection.
        capacity: the admission queue's configured bound.
    """

    def __init__(
        self, message: str, queue_depth: int = 0, capacity: int = 0
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.capacity = capacity


class RegistryError(GrapeError):
    """Unknown or duplicate name in a plug-in registry."""


# ----------------------------------------------------------------------
# Field checks for outside input (workload traces, fault plans)
# ----------------------------------------------------------------------
def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Field kinds for :func:`check_fields`: (what the field must hold, test).
INT = ("an integer", _is_int)
POSITIVE_INT = ("a positive integer", lambda v: _is_int(v) and v >= 1)
INT_OR_NULL = ("an integer or null", lambda v: v is None or _is_int(v))
NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
BOOL = ("a boolean", lambda v: isinstance(v, bool))
STR = ("a string", lambda v: isinstance(v, str))
OBJECT = ("an object", lambda v: isinstance(v, dict))
LIST = ("a list", lambda v: isinstance(v, list))


def check_fields(
    where: str, entry: dict, kind: tuple, *names: str, error=GrapeError
) -> None:
    """Refuse each present ``entry[name]`` that is not of ``kind``."""
    what, admits = kind
    for name in names:
        if name in entry and not admits(entry[name]):
            raise error(
                f"{where}: {name!r} must be {what}, got {entry[name]!r}"
            )
