"""repro.obs — unified observability: span tracing, metrics, exporters.

One pure-observer :class:`Tracer` collects flat deterministic events
from the engine, runtime, chaos and serving layers; the virtual
timeline (:mod:`repro.obs.timeline`) places them as spans, priced by
the engine's cost model, without ever consulting wall clock; the Chrome
exporter embeds the log's replay-stable totals (:func:`trace_metrics`)
and the straggler/skew report is rebuilt from that export.
"""

from repro.obs.chrome import (
    chrome_trace,
    dump_chrome_trace,
    trace_metrics,
    write_chrome_trace,
)
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
)
from repro.obs.tracer import Tracer

__all__ = [
    "COMPUTE_COST",
    "RunTimeline",
    "StepTimeline",
    "Tracer",
    "WorkerSpan",
    "build_timeline",
    "chrome_trace",
    "dump_chrome_trace",
    "report_for_tracer",
    "report_from_chrome",
    "runs_from_chrome",
    "skew_report",
    "trace_metrics",
    "write_chrome_trace",
]
