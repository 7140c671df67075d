"""The fault injector: per-run mutable state behind a FaultPlan.

The injector is consulted from exactly two places, chosen so that an
uninstrumented run pays a single ``is None`` check per hook:

* :meth:`FaultInjector.on_compute` — called by
  ``SuperstepHandle.compute`` when a worker (or the coordinator) enters
  its compute interval. Raises a
  :class:`~repro.errors.TransientWorkerFailure` /
  :class:`~repro.errors.FatalWorkerFailure` for crash faults, and
  returns the straggler delay (simulated seconds) to charge to the
  worker's compute time.
* :meth:`FaultInjector.on_wire` — called by ``MPIController.flush`` for
  every message put on the wire. Returns the copies that actually
  arrive: ``[]`` (dropped), ``[msg]`` (clean), ``[msg, msg]``
  (duplicated) or ``[tampered]`` (corrupted; the receiver's checksum
  catches it).

All randomness comes from one ``random.Random(plan.seed)``: the
simulated cluster executes sequentially, so the draw sequence — and
therefore the whole fault schedule — is a pure function of the seed.
"""

from __future__ import annotations

import random

from repro.errors import FatalWorkerFailure, TransientWorkerFailure
from repro.runtime.faults.plan import (
    CorruptFault,
    CrashFault,
    DropFault,
    DuplicateFault,
    FaultPlan,
    StragglerFault,
    UpdateLagFault,
)
from repro.runtime.message import COORDINATOR, Message
from repro.runtime.metrics import FaultCounters

#: Sentinel injected into corrupted payloads (never observed by
#: programs: the checksum mismatch discards the message first).
TAMPER = "\x00__bitflip__"


class FaultInjector:
    """Executes one run's fault schedule; owns the counters it fires."""

    def __init__(
        self, plan: FaultPlan, counters: FaultCounters | None = None
    ) -> None:
        self.plan = plan
        self.counters = counters if counters is not None else FaultCounters()
        self._rng = random.Random(plan.seed)
        #: Remaining firing budget per fault index (None = unlimited).
        self._budget: dict[int, int | None] = {
            i: f.times for i, f in enumerate(plan.faults)
        }

    # ------------------------------------------------------------------
    # Trigger plumbing
    # ------------------------------------------------------------------
    def _fires(self, index: int, fault, deterministic_scope: bool) -> bool:
        """Decide one firing opportunity; consumes RNG/budget as needed."""
        budget = self._budget[index]
        if budget is not None and budget <= 0:
            return False
        if fault.probability > 0.0:
            if self._rng.random() >= fault.probability:
                return False
        elif not deterministic_scope:
            return False
        if budget is not None:
            self._budget[index] = budget - 1
        return True

    @staticmethod
    def _worker_in_scope(fault, worker: int) -> bool:
        if fault.worker is None:
            return worker != COORDINATOR  # coordinator only if targeted
        return worker == fault.worker

    @staticmethod
    def _superstep_in_scope(fault, superstep: int) -> bool:
        # "At or after": a worker idle at exactly k would otherwise dodge
        # its scheduled fault forever, making plans fragile to aim.
        return fault.at_superstep is None or superstep >= fault.at_superstep

    # ------------------------------------------------------------------
    # Hook: SuperstepHandle.compute
    # ------------------------------------------------------------------
    def on_compute(self, worker: int, superstep: int, phase: str) -> float:
        """Consulted at compute entry; returns straggler delay seconds.

        Raises the scheduled :class:`WorkerFailure` for crash faults.
        """
        delay = 0.0
        for i, fault in enumerate(self.plan.faults):
            if isinstance(fault, CrashFault):
                if not self._worker_in_scope(fault, worker):
                    continue
                if not self._superstep_in_scope(fault, superstep):
                    continue
                if not self._fires(i, fault, fault.at_superstep is not None):
                    continue
                self.counters.crashes_injected += 1
                exc_cls = (
                    FatalWorkerFailure if fault.fatal
                    else TransientWorkerFailure
                )
                raise exc_cls(
                    f"injected {'fatal' if fault.fatal else 'transient'} "
                    f"crash of worker {worker} at superstep {superstep} "
                    f"({phase})",
                    worker=worker,
                    superstep=superstep,
                )
            if isinstance(fault, StragglerFault):
                if not self._worker_in_scope(fault, worker):
                    continue
                if not self._superstep_in_scope(fault, superstep):
                    continue
                if not self._fires(i, fault, fault.at_superstep is not None):
                    continue
                self.counters.stragglers_injected += 1
                self.counters.straggler_delay += fault.delay
                delay += fault.delay
        return delay

    # ------------------------------------------------------------------
    # Hook: FleetRouter.apply_updates fan-out
    # ------------------------------------------------------------------
    def on_update(self, worker: int, epoch: int) -> int:
        """Consulted when update batch ``epoch`` is fanned out to a replica.

        Returns the number of consecutive batches the replica falls
        behind (0 = applies the batch normally). The replica keeps
        serving from its stale version; the router's catch-up replay is
        what eventually closes the gap.
        """
        lag = 0
        for i, fault in enumerate(self.plan.faults):
            if not isinstance(fault, UpdateLagFault):
                continue
            if not self._worker_in_scope(fault, worker):
                continue
            if fault.at_epoch is not None and epoch < fault.at_epoch:
                continue
            if not self._fires(i, fault, fault.at_epoch is not None):
                continue
            self.counters.update_lags_injected += 1
            lag += fault.lag
        return lag

    # ------------------------------------------------------------------
    # Hook: MPIController.flush
    # ------------------------------------------------------------------
    @staticmethod
    def _channel_in_scope(fault, msg: Message) -> bool:
        if fault.src is not None and fault.src != msg.src:
            return False
        if fault.dst is not None and fault.dst != msg.dst:
            return False
        return True

    def _tamper(self, msg: Message) -> Message:
        """A copy of ``msg`` whose payload no longer matches its checksum:
        a ``(keys, values)`` column pair loses its first value, any other
        payload is replaced whole."""
        payload = msg.payload
        if type(payload) is tuple:
            keys, values = payload
            tampered: object = (keys, [TAMPER, *values[1:]])
        else:
            tampered = TAMPER
        return Message(
            src=msg.src,
            dst=msg.dst,
            payload=tampered,
            size=msg.size,
            seq=msg.seq,
            checksum=msg.checksum,
        )

    def on_wire(self, msg: Message) -> list[Message]:
        """Pass a message through the wire-fault schedule."""
        out = [msg]
        for i, fault in enumerate(self.plan.faults):
            if isinstance(fault, DropFault):
                if self._channel_in_scope(fault, msg) and self._fires(
                    i, fault, True
                ):
                    self.counters.drops_injected += 1
                    return []
            elif isinstance(fault, DuplicateFault):
                if self._channel_in_scope(fault, msg) and self._fires(
                    i, fault, True
                ):
                    self.counters.duplicates_injected += 1
                    out.append(out[0])
            elif isinstance(fault, CorruptFault):
                if self._channel_in_scope(fault, msg) and self._fires(
                    i, fault, True
                ):
                    self.counters.corruptions_injected += 1
                    out[0] = self._tamper(out[0])
        return out
