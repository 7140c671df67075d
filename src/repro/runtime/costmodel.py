"""Deterministic cost model turning measured work into simulated time.

A BSP superstep on a real cluster costs::

    makespan = max_i(compute_i) + network(total_bytes, n_messages) + barrier

We charge:

* ``compute_i`` — *measured* wall time of worker ``i``'s sequential
  computation this superstep (real Python execution, not an estimate);
  under ``deterministic=True`` only injected delays;
* network time — :data:`LATENCY` per communicating round plus
  ``bytes /`` :data:`BANDWIDTH`; message batches between the same pair
  of hosts share the round latency, as MPI implementations do;
* ``barrier`` — :data:`BARRIER_OVERHEAD`, a fixed synchronization
  overhead per superstep (:data:`DRAIN_OVERHEAD` per relaxed wave).

Defaults approximate a commodity 1 Gb/s cluster. Absolute simulated
seconds are not meant to match the paper's testbed; *ratios* between
engines/configurations are the reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass


#: Seconds of latency charged once per superstep in which any pair of
#: hosts communicates.
LATENCY = 1e-3
#: Network bandwidth in bytes/second (shared, as on one switch).
BANDWIDTH = 125e6  # 1 Gb/s
#: Fixed BSP barrier overhead per superstep, seconds.
BARRIER_OVERHEAD = 5e-4
#: Per-worker channel-drain bookkeeping per relaxed wave, seconds.
#: Replaces the global barrier in ``mode="relaxed"``; keeping it at or
#: below ``BARRIER_OVERHEAD`` preserves the per-round makespan dominance
#: argument (relaxed advance <= strict superstep time).
DRAIN_OVERHEAD = 2.5e-4


@dataclass(frozen=True)
class CostModel:
    """How measured compute enters the simulated cluster's time; the
    network and barrier charges are the module constants above."""

    #: When true, compute intervals are NOT measured with the wall clock;
    #: only deterministic charges (injected straggler delays, supervisor
    #: backoff) enter the makespan. Replays then produce byte-identical
    #: ``RunMetrics`` — the mode the oracle lattice runs in.
    deterministic: bool = False

    def network_time(self, total_bytes: int, rounds: int) -> float:
        """Simulated seconds to move ``total_bytes`` in ``rounds`` batches."""
        if total_bytes <= 0 and rounds <= 0:
            return 0.0
        lat = LATENCY if rounds > 0 else 0.0
        return lat + total_bytes / BANDWIDTH

    def superstep_time(
        self,
        compute_makespan: float,
        total_bytes: int,
        rounds: int,
    ) -> float:
        """Simulated duration of one superstep."""
        return (
            compute_makespan
            + self.network_time(total_bytes, rounds)
            + BARRIER_OVERHEAD
        )
