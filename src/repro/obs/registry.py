"""MetricsRegistry: one flat namespace for the counters a trace embeds.

Replay-stable totals of a tracer's event log live under **stable
dotted names** (``obs.supersteps``, ``obs.bytes.total``,
``obs.faults.retries``, ``obs.service.cache_hits`` ...) with
deterministic ordering; the Chrome exporter embeds them in
``otherData.metrics`` and the skew report prints them.

Naming rules: lowercase dotted segments; dynamic segments are
sanitized to ``[a-z0-9_-]``. Values are scalars
(int/float/str/bool/None) only — the registry is a metric namespace,
not a document store.
"""

from __future__ import annotations

import re

_SEGMENT_RE = re.compile(r"^[a-z0-9_-]+$")
_SANITIZE_RE = re.compile(r"[^a-z0-9_-]")

Scalar = int | float | str | bool | None


def sanitize_segment(raw: object) -> str:
    """A dynamic name as one legal metric segment (lossy but stable)."""
    cleaned = _SANITIZE_RE.sub("_", str(raw).lower())
    return cleaned or "_"


class MetricsRegistry:
    """A sorted ``dotted.name -> scalar`` namespace.

    Deterministic by construction: :meth:`names` and :meth:`as_dict`
    are sorted by name, so two registries built from the same counters
    serialize byte-identically.
    """

    def __init__(self, values: dict[str, Scalar] | None = None) -> None:
        self._values: dict[str, Scalar] = {}
        for name, value in (values or {}).items():
            self.record(name, value)

    # ------------------------------------------------------------------
    def record(self, name: str, value: Scalar) -> None:
        """Set one metric; rejects malformed names and non-scalar values."""
        segments = name.split(".")
        if not segments or not all(_SEGMENT_RE.match(s) for s in segments):
            raise ValueError(
                f"bad metric name {name!r}: want lowercase dotted segments "
                "of [a-z0-9_-]"
            )
        if value is not None and not isinstance(value, (int, float, str, bool)):
            raise ValueError(
                f"metric {name!r} value must be a scalar, got "
                f"{type(value).__name__}"
            )
        self._values[name] = value

    def names(self) -> list[str]:
        """All metric names, sorted."""
        return sorted(self._values)

    def as_dict(self) -> dict[str, Scalar]:
        """Name -> value, sorted by name (the stable JSON schema)."""
        return {name: self._values[name] for name in self.names()}

    @classmethod
    def from_tracer(cls, tracer, prefix: str = "obs") -> "MetricsRegistry":
        """Replay-stable totals from a tracer's event log.

        Only deterministic quantities are aggregated (never measured
        time), so this registry — embedded in exported Chrome traces —
        is byte-identical across re-runs of the same workload.
        """
        reg = cls()
        runs = retries = recoveries = 0
        supersteps = nbytes = messages = 0
        faults: dict[str, float] = {}
        queries = hits = rejected = updates = 0
        routes = stale_routes = hedges = failovers = 0
        breaker_opens = catchups = 0
        for ev in tracer.events:
            kind = ev["kind"]
            if kind == "run_begin":
                runs += 1
            elif kind == "run_end" and "supersteps" in ev:
                supersteps += ev["supersteps"]
                nbytes += ev["bytes"]
                messages += ev["messages"]
                for key, value in ev["faults"].items():
                    faults[key] = faults.get(key, 0) + value
            elif kind == "retry":
                retries += 1
            elif kind == "recovery":
                recoveries += 1
            elif kind == "svc_query":
                queries += 1
                hits += bool(ev["from_cache"])
            elif kind == "svc_reject":
                rejected += 1
            elif kind == "svc_update":
                updates += 1
            elif kind == "fleet_route":
                routes += 1
                stale_routes += bool(ev["stale"])
            elif kind == "fleet_hedge":
                hedges += 1
            elif kind == "fleet_failover":
                failovers += 1
            elif kind == "fleet_breaker":
                breaker_opens += ev["state"] == "open"
            elif kind == "fleet_catchup":
                catchups += 1
        reg.record(f"{prefix}.events", len(tracer.events))
        reg.record(f"{prefix}.runs", runs)
        reg.record(f"{prefix}.supersteps", supersteps)
        reg.record(f"{prefix}.bytes.total", nbytes)
        reg.record(f"{prefix}.messages.total", messages)
        reg.record(f"{prefix}.spans.retry", retries)
        reg.record(f"{prefix}.spans.recovery", recoveries)
        for key in sorted(faults):
            reg.record(f"{prefix}.faults.{sanitize_segment(key)}", faults[key])
        if queries or rejected or updates:
            reg.record(f"{prefix}.service.queries", queries)
            reg.record(f"{prefix}.service.cache_hits", hits)
            reg.record(f"{prefix}.service.rejected", rejected)
            reg.record(f"{prefix}.service.updates", updates)
        if routes or hedges or failovers or breaker_opens or catchups:
            reg.record(f"{prefix}.fleet.routes", routes)
            reg.record(f"{prefix}.fleet.stale_served", stale_routes)
            reg.record(f"{prefix}.fleet.hedges", hedges)
            reg.record(f"{prefix}.fleet.failovers", failovers)
            reg.record(f"{prefix}.fleet.breaker_opens", breaker_opens)
            reg.record(f"{prefix}.fleet.catchups", catchups)
        return reg
