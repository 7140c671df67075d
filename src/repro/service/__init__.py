"""The query-serving layer in front of the GRAPE engine.

* :mod:`service` — :class:`GrapeService`: versioned graph handle, many
  logical clients, standing queries maintained by IncEval;
* :mod:`scheduler` — bounded admission queue, priorities, simulated
  worker lanes (backpressure via
  :class:`~repro.errors.ServiceOverloadedError`);
* :mod:`cache` — versioned result cache (LRU, invalidated on
  mutation);
* :mod:`metrics` — deterministic :class:`ServiceReport` (latency
  percentiles from simulated time, cache traffic, ΔG work ratios);
* :mod:`trace` — JSON workload traces and their replay
  (``grape serve``);
* :mod:`fleet` — :class:`FleetRouter`: N copies of a trace's service
  behind a deterministic router with failover, deadlines, hedging,
  circuit breakers, stale-tagged degraded answers and checkpoint +
  journal replica recovery (``grape serve --replicas``).
"""

from repro.service.cache import ResultCache, cache_key
from repro.service.fleet import (
    FleetReport,
    FleetResult,
    FleetRouter,
    default_chaos_plan,
)
from repro.service.metrics import ServiceReport, percentile, run_cost
from repro.service.scheduler import DEFAULT_PRIORITY, QueryRequest
from repro.service.service import (
    GrapeService,
    ServedResult,
    UpdateOutcome,
    canonical_answer_bytes,
)
from repro.service.trace import build_service, load_trace, replay_trace

__all__ = [
    "GrapeService",
    "ServedResult",
    "UpdateOutcome",
    "ResultCache",
    "ServiceReport",
    "QueryRequest",
    "DEFAULT_PRIORITY",
    "FleetRouter",
    "FleetReport",
    "FleetResult",
    "default_chaos_plan",
    "cache_key",
    "percentile",
    "run_cost",
    "canonical_answer_bytes",
    "build_service",
    "load_trace",
    "replay_trace",
]
