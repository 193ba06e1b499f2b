"""Telemetry: the single observability layer of the library.

RegHD's headline claims are *efficiency* claims — operation counts,
memory traffic, latency — so measurement is part of the reproduction,
not an afterthought.  This package provides:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms (pure numpy, lock-free on the single-thread path,
  thread-safe under concurrent callers) plus a structured event
  log for discrete reliability occurrences;
* :func:`span` / :func:`trace` / :class:`Tracer` — one span stack on
  the monotonic clock (:func:`monotonic`): spans record per-path
  duration histograms, and a trace gives every stream batch, replay
  batch and distributed round a trace id; spans closed under an open
  trace gain parent/child structure, latency histograms record the
  slowest trace id per bucket (exemplars), and :func:`to_chrome_trace`
  exports the span records as Chrome trace-event JSON
  (``repro trace --out trace.json``);
* :class:`FlightRecorder` / :func:`auto_dump` — a bounded black box of
  recent spans, events and metric deltas that dumps a post-mortem
  bundle (trace tree, last-N events, gate values, checkpoint id) on
  watchdog rollback, replay gate breach, or uncaught stream exception;
* :class:`SLOTracker` / :func:`render_top` — quality gates re-expressed
  as rolling error-budget windows with live burn rates, persisted as
  atomic snapshot files that ``repro top`` tails and renders;
* :func:`to_prometheus` / :func:`to_json` / :func:`write_metrics` —
  exporters that stamp package/runtime versions and the resolved kernel
  backend into every artifact.

Collection is off by default and costs one ``None`` check per
instrumentation site when off: :func:`enable` / :func:`disable` flip the
module-level sink, and ``REPRO_TELEMETRY=1`` flips it at import time
(``REPRO_TRACE=1`` additionally arms the tracer).  Every metric the library
emits is catalogued in :data:`~repro.telemetry.metrics.CATALOG`
(reproduced in DESIGN.md §1.12).

This package imports nothing from the rest of the library at module
level, so any layer (runtime, engine, reliability) may instrument itself
without creating an import cycle.
"""

from repro.telemetry.metrics import (
    CATALOG,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TELEMETRY_ENV_VAR,
    active,
    add_event_hook,
    disable,
    enable,
    enabled,
    remove_event_hook,
)
from repro.telemetry.timing import monotonic
from repro.telemetry.tracing import (
    Span,
    SpanRecord,
    TRACE_ENV_VAR,
    Tracer,
    active_tracer,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    span,
    to_chrome_trace,
    trace,
    write_chrome_trace,
)
from repro.telemetry.flight import (
    FlightRecorder,
    active_recorder,
    auto_dump,
    disable_flight,
    enable_flight,
    trace_tree,
)
from repro.telemetry.slo import (
    SLOTracker,
    SLOWindow,
    SnapshotWriter,
    read_snapshot,
    render_top,
    run_top,
)
from repro.telemetry.export import (
    default_meta,
    to_json,
    to_prometheus,
    write_metrics,
)

__all__ = [
    "CATALOG",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SLOTracker",
    "SLOWindow",
    "SnapshotWriter",
    "Span",
    "SpanRecord",
    "TELEMETRY_ENV_VAR",
    "TRACE_ENV_VAR",
    "Tracer",
    "active",
    "active_recorder",
    "active_tracer",
    "add_event_hook",
    "auto_dump",
    "current_trace_id",
    "default_meta",
    "disable",
    "disable_flight",
    "disable_tracing",
    "enable",
    "enable_flight",
    "enable_tracing",
    "enabled",
    "monotonic",
    "read_snapshot",
    "remove_event_hook",
    "render_top",
    "run_top",
    "span",
    "to_chrome_trace",
    "to_json",
    "to_prometheus",
    "trace",
    "trace_tree",
    "write_chrome_trace",
    "write_metrics",
]
