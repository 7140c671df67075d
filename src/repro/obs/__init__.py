"""repro.obs — unified observability: span tracing, metrics, exporters.

One pure-observer :class:`Tracer` collects flat deterministic events
from the engine, runtime, chaos and serving layers; the virtual
timeline (:mod:`repro.obs.timeline`) places them as spans, priced by
the engine's cost model, without ever consulting wall clock; the Chrome
exporter and the straggler/skew report are two views over that
timeline, and :class:`MetricsRegistry` gives the log's replay-stable
totals stable dotted names.
"""

from repro.obs.chrome import (
    chrome_trace,
    dump_chrome_trace,
    write_chrome_trace,
)
from repro.obs.registry import MetricsRegistry, sanitize_segment
from repro.obs.skew import (
    report_for_tracer,
    report_from_chrome,
    runs_from_chrome,
    skew_report,
)
from repro.obs.timeline import (
    COMPUTE_COST,
    RunTimeline,
    StepTimeline,
    WorkerSpan,
    build_timeline,
    fleet_events,
    service_events,
)
from repro.obs.tracer import Tracer

__all__ = [
    "COMPUTE_COST",
    "MetricsRegistry",
    "RunTimeline",
    "StepTimeline",
    "Tracer",
    "WorkerSpan",
    "build_timeline",
    "chrome_trace",
    "dump_chrome_trace",
    "fleet_events",
    "report_for_tracer",
    "report_from_chrome",
    "runs_from_chrome",
    "sanitize_segment",
    "service_events",
    "skew_report",
    "write_chrome_trace",
]
