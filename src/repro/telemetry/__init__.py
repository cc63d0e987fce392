"""Structured telemetry: event tracing, metrics, and live instrumentation.

The paper's contribution is fundamentally about *when* things happen on a
constrained device — detection delay, reconstruction windows, per-phase
execution time (Tables 2/3/5) — and this subpackage gives the reproduction
runtime visibility into exactly that:

* :class:`Telemetry` — a hub holding a :class:`MetricsRegistry` (counters,
  gauges, fixed-bucket histograms) and a span tracer, fanned out to
  pluggable sinks (:class:`RingBufferSink`, :class:`JsonlSink`,
  :class:`StderrSink`);
* a process-wide **no-op default** (:func:`get_telemetry`) that every
  pipeline, detector, reconstructor, model, and runner adopts at
  construction — a single ``enabled`` check keeps disabled-instrumentation
  overhead under 5 % (``benchmarks/bench_telemetry_overhead.py``);
* :func:`configure` — flip the default hub on/off and attach sinks,
  affecting components that already exist;
* exporters — ``registry.as_dict()`` / ``to_json()`` / ``to_prometheus()``
  (text exposition format) — and :func:`render_summary` (lazy import, see
  :mod:`repro.telemetry.report`) for a terminal digest;
* cross-process aggregation — :class:`TelemetrySnapshot` captures of a
  registry (``snapshot()`` / ``snapshot_delta()``) merged back via
  ``merge()``, so worker-process metrics land in the parent hub;
* :class:`~repro.telemetry.httpd.EndpointSuite` — renders ``/metrics``
  (Prometheus text), ``/health`` and ``/fleet`` from a live hub for the
  asyncio :class:`~repro.serving.server.IngestServer`;
* drift provenance — the ``drift_audit`` event stream summarised by
  :func:`audit_report` / :func:`render_audit`
  (:mod:`repro.telemetry.audit`).

See ``docs/telemetry.md`` for the event schema and instrumentation map.
"""

from .audit import audit_report, load_audit, render_audit
from .events import Event
from .hub import Span, Telemetry, configure, get_telemetry
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .promlint import lint_prometheus
from .sinks import EventSink, JsonlSink, RingBufferSink, StderrSink
from .snapshot import TelemetrySnapshot

__all__ = [
    "Telemetry",
    "Span",
    "get_telemetry",
    "configure",
    "Event",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetrySnapshot",
    "DEFAULT_TIME_BUCKETS",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "StderrSink",
    "render_summary",
    "lint_prometheus",
    "load_audit",
    "audit_report",
    "render_audit",
]


def __getattr__(name: str):
    # ``report`` imports repro.metrics (tables, ascii plots), which imports
    # this package back — deferring the import until first use breaks the
    # cycle while keeping ``repro.telemetry.render_summary`` addressable.
    if name == "render_summary":
        from .report import render_summary

        return render_summary
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
