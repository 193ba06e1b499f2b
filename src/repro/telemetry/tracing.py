"""Spans and traces on one span stack, and Chrome trace-event export.

``with span("stream"): ... with span("predict"): ...`` times the inner
stage under the *path* ``stream/predict``: each closed span lands as one
observation in the ``reghd_span_seconds`` histogram, labelled with its
path.  A *trace* groups everything the pipeline did for one unit of
work — a replay batch, a stream update, a distributed round — under one
deterministic trace id.  :func:`span` and :func:`trace` both push a
frame onto one stack, a ``contextvars`` variable holding the innermost
open frame; a frame reads its path, its parent span id and its trace id
from its parent.  Threads start with an empty context, so concurrently
serving threads trace independently.

A :func:`trace` frame is never a path segment and never observes
``reghd_span_seconds``, so span labels are the same with the tracer on
or off.  Opening a trace while one is open *joins* it as a child frame
and yields the outer trace's root frame: a batch wrapped by the replay
engine, the resilient stream and the streaming layer keeps one id.

Under an armed tracer (:func:`enable_tracing`) every closed frame
becomes a :class:`SpanRecord` in the module-level :class:`Tracer` ring,
and :func:`stage` adds a leaf record with explicit timestamps under the
innermost open frame (the serving executor's ``tile/*`` stages).
:func:`to_chrome_trace` renders the records as the standard Chrome
trace-event JSON (``chrome://tracing`` / Perfetto ``ph: "X"`` complete
events).

Design rules, matching :mod:`repro.telemetry.metrics`:

* **Zero overhead when disabled.**  :func:`span` checks the metrics
  sink and :func:`trace` the tracer first; while off they return one
  shared stateless no-op frame — no clock read, no contextvar write, no
  allocation.
* **Deterministic ids.**  Trace and span ids are sequence numbers from
  the tracer, never wall-clock or random values, so two runs of the
  same seeded workload produce byte-identical trace structures (only
  the sanctioned monotonic timestamps differ, and tests pin those by
  monkeypatching :func:`repro.telemetry.timing.monotonic`, which every
  frame reads as a module attribute).
* **Bit-identical predictions.**  Tracing only ever *observes*; no
  numeric path reads the trace state.

Enabling tracing implies enabling metrics (spans only fire when the
metrics sink is live) and installs the histogram *exemplar* provider:
while a trace is open, :class:`~repro.telemetry.metrics.Histogram`
records the trace id of the slowest observation per bucket, so a p99
bucket links back to a concrete trace.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
from collections import deque
from contextvars import ContextVar

from repro.telemetry import metrics
from repro.telemetry import timing

__all__ = [
    "SPAN_METRIC",
    "Span",
    "SpanRecord",
    "TRACE_ENV_VAR",
    "Tracer",
    "active_tracer",
    "add_span_sink",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "remove_span_sink",
    "span",
    "stage",
    "to_chrome_trace",
    "trace",
    "write_chrome_trace",
]

#: environment variable that switches tracing (and telemetry) on at import.
TRACE_ENV_VAR = "REPRO_TRACE"

#: histogram receiving every closed span's duration.
SPAN_METRIC = "reghd_span_seconds"

_TRUTHY = frozenset({"1", "true", "on", "yes"})


class SpanRecord:
    """One completed span, immutable once recorded.

    ``trace_id`` is empty for spans completed outside any open trace
    (orphans are still useful in the flight recorder).  ``thread`` is
    the raw ``threading.get_ident()`` — exporters map it to stable
    small integers so dumps stay machine-independent.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "path",
        "start",
        "end",
        "thread",
        "attrs",
    )

    def __init__(
        self,
        *,
        trace_id: str,
        span_id: int,
        parent_id: int | None,
        name: str,
        path: str,
        start: float,
        end: float,
        thread: int,
        attrs: dict | None = None,
    ):
        self.trace_id = trace_id
        self.span_id = int(span_id)
        self.parent_id = parent_id if parent_id is None else int(parent_id)
        self.name = str(name)
        self.path = str(path)
        self.start = float(start)
        self.end = float(end)
        self.thread = int(thread)
        self.attrs = dict(attrs) if attrs else {}

    @property
    def duration(self) -> float:
        """Span wall time in (monotonic) seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation (thread id deliberately omitted —
        exporters assign stable per-dump thread numbers instead)."""
        d = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d


class Tracer:
    """Bounded ring of completed span records with deterministic ids.

    ``capacity`` bounds memory for long runs; the newest records win.
    Record appends are a single ``deque.append`` (thread-safe under the
    GIL), so threads tracing concurrently record without locking.
    """

    def __init__(self, *, capacity: int = 8192):
        self._lock = threading.Lock()
        self._records: deque[SpanRecord] = deque(maxlen=int(capacity))
        self._trace_seq = 0
        self._span_seq = 0
        # (registry, counter) pair so the per-span counter bump skips
        # the registry's locked series lookup on the hot path.
        self._span_counter: tuple = (None, None)

    def next_trace_id(self) -> str:
        """The next deterministic trace id (``t`` + sequence number)."""
        with self._lock:
            self._trace_seq += 1
            return f"t{self._trace_seq:08d}"

    def next_span_id(self) -> int:
        """The next deterministic span id."""
        with self._lock:
            self._span_seq += 1
            return self._span_seq

    def record(self, record: SpanRecord) -> None:
        """Append one completed span and fan it out to the sinks."""
        self._records.append(record)
        registry = metrics.active()
        if registry is not None:
            cached_registry, counter = self._span_counter
            if cached_registry is not registry:
                counter = registry.counter("reghd_trace_spans_total")
                self._span_counter = (registry, counter)
            counter.inc()
        for sink in _span_sinks:
            sink(record)

    @property
    def records(self) -> list[SpanRecord]:
        """The retained span records, oldest first (snapshot copy)."""
        return list(self._records)

    @property
    def n_traces(self) -> int:
        """Number of traces opened on this tracer."""
        return self._trace_seq

    @property
    def n_spans(self) -> int:
        """Number of span ids claimed on this tracer."""
        return self._span_seq


def _record(
    tracer: Tracer,
    root: "_Trace | None",
    span_id: int,
    parent_id: int | None,
    name: str,
    path: str,
    start: float,
    end: float,
    attrs: dict | None,
) -> None:
    """Record one finished span: a closed frame or a timed stage."""
    tracer.record(
        SpanRecord(
            trace_id="" if root is None else root.trace_id,
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            path=path,
            start=start,
            end=end,
            thread=threading.get_ident(),
            attrs=attrs,
        )
    )


class Span:
    """One open span: the innermost frame of the span stack while open.

    Its path extends the parent frame's path by its name.  The duration
    is observed into ``reghd_span_seconds{span=<path>}`` on exit,
    including when the body raises (the exception still propagates).
    Under an armed tracer the frame also claims a deterministic span id,
    takes its parent's span id and trace (``root``), and emits a
    :class:`SpanRecord` on exit; ``root`` is None outside any trace, and
    such orphan spans record with an empty trace id.
    """

    __slots__ = (
        "name", "path", "root", "span_id", "parent_id", "_registry",
        "_tracer", "_parent", "_start",
    )

    def __init__(self, name: str, registry: metrics.MetricsRegistry | None):
        self.name = str(name)
        self._registry = registry

    def _push(self, tracer: Tracer | None) -> str:
        """Make this frame the innermost; returns the parent's path."""
        parent = self._parent = _frame.get()
        self._tracer = tracer
        self.span_id = None if tracer is None else tracer.next_span_id()
        if parent is None:
            self.root = self.parent_id = None
        else:
            self.root, self.parent_id = parent.root, parent.span_id
        _frame.set(self)
        return "" if parent is None else parent.path

    def _pop(self, path: str, attrs: dict | None) -> float:
        """Restore the parent frame and record this one; returns the
        end time."""
        end = timing.monotonic()
        _frame.set(self._parent)
        if self._tracer is not None:
            _record(
                self._tracer, self.root, self.span_id, self.parent_id,
                self.name, path, self._start, end, attrs,
            )
        return end

    def __enter__(self) -> "Span":
        prefix = self._push(_tracer)
        self.path = f"{prefix}/{self.name}" if prefix else self.name
        self._start = timing.monotonic()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = self._pop(self.path, None)
        self._registry.histogram(SPAN_METRIC, span=self.path).observe(
            end - self._start
        )
        return False


class _Trace(Span):
    """A trace frame: the root of a new trace, or a child of the open one.

    It keeps its parent's path, so it is never a path segment, and it
    observes no span histogram.  An opening frame claims the trace id
    and is its own ``root``; a joining frame drops its attrs.  Either
    way ``with trace(...) as t`` yields the root frame, whose
    ``trace_id`` names the trace.  Records carry the frame's name as
    their path.
    """

    __slots__ = ("trace_id", "attrs")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        super().__init__(name, None)
        self._tracer = tracer
        self.attrs = attrs

    def __enter__(self) -> "_Trace":
        tracer = self._tracer
        self.path = self._push(tracer)
        if self.root is None:
            self.root, self.parent_id = self, None
            self.trace_id = tracer.next_trace_id()
            registry = metrics.active()
            if registry is not None:
                registry.counter("reghd_trace_traces_total").inc()
        else:
            self.attrs = None
        self._start = timing.monotonic()
        return self.root

    def __exit__(self, *exc: object) -> bool:
        self._pop(self.name, self.attrs or None)
        return False


class _NullFrame:
    """The shared no-op frame :func:`span` and :func:`trace` return
    while off; ``trace_id`` reads None, so ``with trace(...) as t`` code
    never branches on the enabled state."""

    __slots__ = ()

    trace_id = None

    def __enter__(self) -> "_NullFrame":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_FRAME = _NullFrame()

#: the innermost open frame of this context's span stack.
_frame: ContextVar[Span | None] = ContextVar("reghd_span_frame", default=None)


# -- the module-level sink ---------------------------------------------------

_tracer: Tracer | None = None
_span_sinks: tuple = ()


def active_tracer() -> Tracer | None:
    """The collecting tracer, or None when tracing is off."""
    return _tracer


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Switch tracing on; returns the collecting tracer.

    Also enables the metrics sink (spans only fire when metrics are on)
    and installs the histogram exemplar provider.  Idempotent like
    :func:`repro.telemetry.metrics.enable`.
    """
    global _tracer
    if tracer is not None:
        _tracer = tracer
    elif _tracer is None:
        _tracer = Tracer()
    metrics.enable()
    metrics.set_exemplar_provider(current_trace_id)
    return _tracer


def disable_tracing() -> None:
    """Switch tracing off (drops the tracer and the exemplar provider).

    Leaves the metrics sink as-is: callers that enabled metrics
    independently keep collecting.
    """
    global _tracer
    _tracer = None
    metrics.set_exemplar_provider(None)


def add_span_sink(sink) -> None:
    """Register a callable receiving every completed :class:`SpanRecord`
    (the flight recorder's feed)."""
    global _span_sinks
    if sink not in _span_sinks:
        _span_sinks = _span_sinks + (sink,)


def remove_span_sink(sink) -> None:
    """Unregister a sink previously added with :func:`add_span_sink`."""
    global _span_sinks
    # Equality, not identity: bound methods are fresh objects on every
    # attribute access, so ``is`` would never match a prior add.
    _span_sinks = tuple(s for s in _span_sinks if s != sink)


def span(name: str) -> "Span | _NullFrame":
    """A timing context manager for one named span.

    Returns the shared null frame when telemetry is disabled, so the
    ``with`` costs one attribute check and nothing else.
    """
    registry = metrics.active()
    if registry is None:
        return _NULL_FRAME
    return Span(name, registry)


def trace(name: str, **attrs: object) -> "_Trace | _NullFrame":
    """Open a trace around one unit of work, or join the open one.

    Returns the shared null frame when tracing is disabled, so the
    ``with`` costs one module-global check and nothing else.  The
    yielded root frame exposes the deterministic ``trace_id``; a trace
    opened while one is open joins it as a child frame (attrs are
    dropped) and yields the outer root.
    """
    tracer = _tracer
    if tracer is None:
        return _NULL_FRAME
    return _Trace(tracer, name, attrs)


def stage(name: str, start: float, end: float, **attrs: object) -> None:
    """Record a finished leaf span with explicit timestamps.

    The serving executor times each tile's stages with one clock read
    per stage boundary and hands them here (``tile/encode``,
    ``tile/search``, ``tile/accumulate``).  The record hangs under the
    innermost open frame, keeps its name as its path and observes no
    span histogram; outside an open trace nothing is recorded.
    """
    tracer = _tracer
    parent = None if tracer is None else _frame.get()
    if parent is None or parent.root is None:
        return
    _record(
        tracer, parent.root, tracer.next_span_id(), parent.span_id,
        name, name, start, end, attrs or None,
    )


def current_trace_id() -> str | None:
    """The open trace's id, or None (also None when tracing is off)."""
    if _tracer is None:
        return None
    frame = _frame.get()
    return None if frame is None or frame.root is None else frame.root.trace_id


# -- Chrome trace-event export -----------------------------------------------


def to_chrome_trace(tracer: Tracer, *, meta: dict | None = None) -> dict:
    """Render the tracer's records as Chrome trace-event JSON.

    Every span becomes a ``ph: "X"`` complete event with microsecond
    ``ts``/``dur`` relative to the earliest recorded span, so the file
    loads directly into ``chrome://tracing`` or Perfetto.  Thread
    idents map to stable small integers in first-seen order, keeping
    the export machine-independent.
    """
    records = tracer.records
    base = min((r.start for r in records), default=0.0)
    tids: dict[int, int] = {}
    events = []
    for rec in records:
        args: dict = {
            "trace_id": rec.trace_id,
            "span_id": rec.span_id,
            "parent_id": rec.parent_id,
            "path": rec.path,
        }
        args.update(rec.attrs)
        events.append(
            {
                "name": rec.name,
                "cat": "reghd",
                "ph": "X",
                "ts": round((rec.start - base) * 1e6, 3),
                "dur": round(rec.duration * 1e6, 3),
                "pid": 0,
                "tid": tids.setdefault(rec.thread, len(tids)),
                "args": args,
            }
        )
    other = {"clock": "monotonic", "n_traces": tracer.n_traces}
    if meta:
        other.update(meta)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    tracer: Tracer,
    path: str | pathlib.Path,
    *,
    meta: dict | None = None,
) -> pathlib.Path:
    """Write :func:`to_chrome_trace` output to ``path`` as JSON."""
    path = pathlib.Path(path)
    payload = json.dumps(
        to_chrome_trace(tracer, meta=meta), indent=2, sort_keys=True
    )
    path.write_text(payload + "\n")
    return path


if os.environ.get(TRACE_ENV_VAR, "").strip().lower() in _TRUTHY:
    enable_tracing()
