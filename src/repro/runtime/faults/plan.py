"""Declarative, seed-deterministic fault plans for chaos testing.

A :class:`FaultPlan` is a list of fault specs plus an RNG seed. The
engine turns it into a :class:`~repro.runtime.faults.injector.FaultInjector`
(one per run, so a plan can be reused across runs and always replays the
same fault schedule). Six fault classes mirror what real BSP clusters
and serving fleets suffer:

* :class:`CrashFault` — a worker dies mid-compute. ``fatal=False``
  models a flaky node the supervisor retries; ``fatal=True`` models
  permanent machine loss, which forces checkpoint recovery.
* :class:`DropFault` — a message vanishes on the wire.
* :class:`DuplicateFault` — a message is delivered twice.
* :class:`CorruptFault` — a message's payload is tampered in flight
  (detected by the receiver's checksum, never silently applied).
* :class:`StragglerFault` — a worker's compute is delayed; the delay is
  charged through the cost model like real compute time.
* :class:`UpdateLagFault` — a serving replica falls behind on ΔG
  batches: it keeps answering queries, but from an older graph version,
  until catch-up replay brings it back (consulted by the fleet router,
  not the engine).

Every spec fires either deterministically (``at_superstep``) or
stochastically (``probability`` per opportunity, drawn from the plan's
seeded RNG), and at most ``times`` times (``None`` = unlimited). Plans
round-trip through JSON (:meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`) so the ``grape chaos`` CLI can load them
from files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

from repro.errors import (
    BOOL,
    INT,
    INT_OR_NULL,
    LIST,
    NUMBER,
    ProgramError,
    check_fields,
)

#: The kind of every spec field (a plan is outside input); a spec
#: checks the ones it has.
_SPEC_FIELDS = (
    (INT_OR_NULL, ("worker", "src", "dst", "at_superstep", "at_epoch",
                   "times")),
    (NUMBER, ("probability", "delay")),
    (BOOL, ("fatal",)),
    (INT, ("lag",)),
)

#: The least value of each bounded field, when set (``times`` None
#: means unlimited).
_FLOORS = {"times": 1, "at_superstep": 0, "delay": 0, "lag": 1}


class _Spec:
    """A fault spec refuses, on construction, what the injector would
    trip over or silently ignore: a wrongly typed field, a field below
    its floor, a probability outside [0, 1] or no trigger at all."""

    def __post_init__(self) -> None:
        given, where = vars(self), f"{self.kind} fault"
        for kind, names in _SPEC_FIELDS:
            check_fields(where, given, kind, *names, error=ProgramError)
        for name, least in _FLOORS.items():
            if given.get(name) is not None and given[name] < least:
                raise ProgramError(
                    f"{where} {name} must be >= {least}, got {given[name]}"
                )
        if not 0.0 <= self.probability <= 1.0:
            raise ProgramError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        for trigger in ("at_superstep", "at_epoch"):
            if trigger in given and given[trigger] is None and (
                self.probability == 0.0
            ):
                raise ProgramError(
                    f"{where} needs {trigger} and/or probability"
                )


@dataclass(frozen=True)
class CrashFault(_Spec):
    """Kill a worker's compute with a :class:`WorkerFailure`.

    Attributes:
        worker: target rank (None = any worker; ``-1`` = coordinator).
        at_superstep: fire at the first matching compute at or after
            this cluster superstep index (None = any superstep).
        probability: per-compute chance of firing (0.0 with
            ``at_superstep`` set means "fire deterministically there").
        fatal: permanent loss (checkpoint recovery) vs transient (retry).
        times: maximum number of firings (None = unlimited).
    """

    kind: ClassVar[str] = "crash"

    worker: int | None = None
    at_superstep: int | None = None
    probability: float = 0.0
    fatal: bool = False
    times: int | None = 1


@dataclass(frozen=True)
class StragglerFault(_Spec):
    """Delay a worker's compute by ``delay`` simulated seconds."""

    kind: ClassVar[str] = "straggler"

    worker: int | None = None
    at_superstep: int | None = None
    probability: float = 0.0
    delay: float = 0.05
    times: int | None = 1


@dataclass(frozen=True)
class UpdateLagFault(_Spec):
    """A serving replica falls behind on ΔG batches.

    Fleet-level fault: consulted by the router's
    :meth:`~repro.runtime.faults.injector.FaultInjector.on_update` hook
    when an update batch is fanned out to a replica. A firing means the
    replica defers applying that batch (and the ``lag - 1`` after it),
    so it keeps serving — correctly, but from a stale graph version —
    until catch-up replay brings it back into step.

    Attributes:
        worker: target replica id (None = any replica).
        at_epoch: fire at the first matching fan-out at or after this
            update-batch index (None = any epoch).
        probability: per-fan-out chance of firing.
        lag: number of consecutive batches the replica misses (>= 1).
        times: maximum number of firings (None = unlimited).
    """

    kind: ClassVar[str] = "update_lag"

    worker: int | None = None
    at_epoch: int | None = None
    probability: float = 0.0
    lag: int = 1
    times: int | None = 1


@dataclass(frozen=True)
class _MessageFault(_Spec):
    """Common scope of the wire-level faults (src/dst = None matches any)."""

    src: int | None = None
    dst: int | None = None
    probability: float = 1.0
    times: int | None = 1


@dataclass(frozen=True)
class DropFault(_MessageFault):
    """Lose a matching message on the wire (forces a retransmission)."""

    kind: ClassVar[str] = "drop"


@dataclass(frozen=True)
class DuplicateFault(_MessageFault):
    """Deliver a matching message twice (exercises receiver dedup)."""

    kind: ClassVar[str] = "duplicate"


@dataclass(frozen=True)
class CorruptFault(_MessageFault):
    """Tamper a matching message's payload in flight."""

    kind: ClassVar[str] = "corrupt"


#: Every concrete fault spec class, keyed by its JSON ``kind``.
FAULT_KINDS = {
    cls.kind: cls
    for cls in (CrashFault, StragglerFault, UpdateLagFault, DropFault,
                DuplicateFault, CorruptFault)
}

FaultSpec = (
    CrashFault | StragglerFault | UpdateLagFault | DropFault
    | DuplicateFault | CorruptFault
)


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault schedule: specs + the RNG seed that drives them.

    The plan itself is immutable; per-run mutable state (fire counts,
    the RNG) lives in the injector built by :meth:`injector`, so one
    plan replays identically across any number of runs.
    """

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        check_fields(
            "fault plan", {"seed": self.seed}, INT, "seed", error=ProgramError
        )
        for f in self.faults:
            if not isinstance(f, tuple(FAULT_KINDS.values())):
                raise ProgramError(f"not a fault spec: {f!r}")

    def injector(self, counters=None):
        """Build a fresh, seeded injector for one engine run."""
        from repro.runtime.faults.injector import FaultInjector

        return FaultInjector(self, counters=counters)

    # ------------------------------------------------------------------
    # JSON round-trip (the `grape chaos --plan file.json` schema)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form: ``{"seed": ..., "faults": [{"kind": ...}]}``."""
        return {
            "seed": self.seed,
            "faults": [
                {"kind": f.kind, **asdict(f)} for f in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Parse the :meth:`to_dict` schema (raises ProgramError on junk)."""
        if not isinstance(data, dict):
            raise ProgramError(f"fault plan must be an object, got {data!r}")
        check_fields("fault plan", data, LIST, "faults", error=ProgramError)
        faults = []
        for entry in data.get("faults", []):
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ProgramError(f"fault entry needs a 'kind': {entry!r}")
            kind = entry["kind"]
            try:
                spec_cls = FAULT_KINDS[kind]
            except KeyError:
                raise ProgramError(
                    f"unknown fault kind {kind!r}; "
                    f"available: {sorted(FAULT_KINDS)}"
                ) from None
            kwargs = {k: v for k, v in entry.items() if k != "kind"}
            try:
                faults.append(spec_cls(**kwargs))
            except TypeError as exc:
                raise ProgramError(
                    f"bad {kind!r} fault spec {entry!r}: {exc}"
                ) from None
        return cls(faults=tuple(faults), seed=data.get("seed", 0))
