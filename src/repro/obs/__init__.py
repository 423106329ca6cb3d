"""repro.obs — the fleet's telemetry plane.

Three pieces, all dependency-free (numpy + stdlib):

* :mod:`repro.obs.metrics` — counters/gauges/fixed-bucket histograms in
  a :class:`MetricsRegistry`, with Prometheus text rendering and JSONL
  export;
* :mod:`repro.obs.tracing` — deterministic sampled window-lifecycle
  spans (ingest→queue→verdict→scatter) with per-transition
  duration percentiles;
* :mod:`repro.obs.dashboard` — a message-driven, headless-renderable
  live terminal dashboard over the running fleet.

The fleet engine threads these through every layer behind a
``telemetry=`` / ``tracer=`` pair of constructor arguments; both
default off, and off costs a no-op method call per batch.
"""

from .dashboard import (
    Dashboard,
    MetricsUpdate,
    ReportUpdate,
    TraceUpdate,
    ansi_frame,
    sparkline,
)
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    JsonlExporter,
    MetricsRegistry,
    NULL_REGISTRY,
    default_registry,
    histogram_percentile,
    render_prometheus,
    resolve_registry,
    summarize_snapshot,
)
from .tracing import STAGES, TraceContext, TraceSampler, TraceSpan

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Dashboard",
    "Gauge",
    "Histogram",
    "JsonlExporter",
    "MetricsRegistry",
    "MetricsUpdate",
    "NULL_REGISTRY",
    "ReportUpdate",
    "STAGES",
    "TraceContext",
    "TraceSampler",
    "TraceSpan",
    "TraceUpdate",
    "ansi_frame",
    "default_registry",
    "histogram_percentile",
    "render_prometheus",
    "resolve_registry",
    "sparkline",
    "summarize_snapshot",
]
