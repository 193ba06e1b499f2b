"""Metrics registry: counters, gauges, fixed-bucket histograms, events.

The registry is the write side of the telemetry layer.  Design goals,
in order:

1. **Zero overhead when disabled.**  The module-level sink is a plain
   ``None`` check (:func:`enabled` / :func:`active`); every
   instrumentation site in the library guards on it before touching a
   metric, so a disabled run executes the exact arithmetic it executed
   before telemetry existed.
2. **Lock-free on the hot path.**  Counters and histograms write into
   per-thread cells (:class:`threading.local`); the only lock is taken
   once per thread per metric, when the cell is first registered.  Reads
   merge the cells, so the engine's ``ThreadPoolExecutor`` workers never
   contend.
3. **Prometheus-compatible semantics.**  Counters are monotonic
   ``*_total`` sums, gauges are last-write-wins scalars, histograms use
   fixed inclusive upper bounds with an implicit ``+Inf`` overflow
   bucket — exactly what the text exposition in
   :mod:`repro.telemetry.export` needs.

The metric *name catalogue* (:data:`CATALOG`) documents every metric the
library emits and provides the ``# HELP`` text for the exporter; it is
reproduced in DESIGN.md §1.13.
"""

from __future__ import annotations

import os
import threading
from collections import deque

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "CATALOG",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TELEMETRY_ENV_VAR",
    "active",
    "add_event_hook",
    "disable",
    "enable",
    "enabled",
    "remove_event_hook",
    "set_enabled",
    "set_exemplar_provider",
]

#: environment variable that switches telemetry on at import time.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"

_TRUTHY = frozenset({"1", "true", "on", "yes"})

#: default histogram bounds, tuned for per-tile serving latencies
#: (tens of microseconds) up to whole-batch training epochs (seconds).
DEFAULT_LATENCY_BUCKETS = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0,
)

#: every metric the library emits: name -> (kind, help text).
CATALOG: dict[str, tuple[str, str]] = {
    "reghd_build_info": (
        "gauge",
        "Constant 1; labels carry package/runtime versions and backend.",
    ),
    "reghd_kernel_calls_total": (
        "counter",
        "KernelBackend method invocations, by backend and kernel.",
    ),
    "reghd_kernel_bytes_total": (
        "counter",
        "Bytes moved through kernel operands (inputs + outputs).",
    ),
    "reghd_cache_events_total": (
        "counter",
        "Operand-cache lookups, by cache name and hit/miss/build event "
        "(query: the training QueryCache; encoded: a partial_fit "
        "mini-batch sliced from the query passed as encoded=).",
    ),
    "reghd_packed_words_rows_total": (
        "counter",
        "PackedWordsCache rows re-packed vs reused across refreshes.",
    ),
    "reghd_plan_compiles_total": (
        "counter",
        "Full CompiledPlan compilations (operand snapshots from scratch).",
    ),
    "reghd_plan_refreshes_total": (
        "counter",
        "Incremental CompiledPlan.refresh calls.",
    ),
    "reghd_plan_rematerializations_total": (
        "counter",
        "Encoder operand regenerations by rematerialised plans "
        "(one per predict call on a rematerialize=True plan).",
    ),
    "reghd_popcount_block_rows": (
        "gauge",
        "Row count of the cache block chosen by the pairwise popcount "
        "kernel on its most recent call.",
    ),
    "reghd_popcount_block_cols": (
        "gauge",
        "Column count of the cache block chosen by the pairwise "
        "popcount kernel on its most recent call.",
    ),
    "reghd_fused_block_cols": (
        "gauge",
        "Column-block width the fused encode-pack pipeline used for "
        "its most recent tile.",
    ),
    "reghd_plan_rows_total": (
        "counter",
        "Plan operand rows, by event: snapshotted at compile, "
        "refreshed or reused during refresh.",
    ),
    "reghd_train_sessions_total": (
        "counter",
        "IterativeTrainer.train runs started.",
    ),
    "reghd_train_epochs_total": (
        "counter",
        "Training epochs completed across all sessions.",
    ),
    "reghd_train_epoch_seconds": (
        "histogram",
        "Wall time of one training epoch (updates + evaluation).",
    ),
    "reghd_train_last_mse": (
        "gauge",
        "Training MSE after the most recent epoch.",
    ),
    "reghd_train_lr": (
        "gauge",
        "Learning rate of the most recent training session.",
    ),
    "reghd_serving_latency_seconds": (
        "histogram",
        "Compiled-engine tile latency, by pipeline stage "
        "(encode / search / accumulate).",
    ),
    "reghd_serving_rows_total": (
        "counter",
        "Rows predicted through the compiled serving path.",
    ),
    "reghd_stream_batches_total": (
        "counter",
        "Stream batches absorbed (predict-then-train updates).",
    ),
    "reghd_stream_drift_total": (
        "counter",
        "Page-Hinkley drift detections.",
    ),
    "reghd_stream_prequential_mse": (
        "gauge",
        "Prequential MSE of the most recent stream batch.",
    ),
    "reghd_checkpoint_writes_total": (
        "counter",
        "Checkpoints written (atomic .npz publishes).",
    ),
    "reghd_checkpoint_restores_total": (
        "counter",
        "Checkpoints restored (rollback or recovery).",
    ),
    "reghd_watchdog_rollbacks_total": (
        "counter",
        "Watchdog-triggered rollbacks to a valid checkpoint.",
    ),
    "reghd_guard_batches_total": (
        "counter",
        "Guarded input batches, by outcome "
        "(clean / repaired / dropped / gated / rejected).",
    ),
    "reghd_guard_values_repaired_total": (
        "counter",
        "Feature values repaired (filled or clipped) by the input guard.",
    ),
    "reghd_guard_rows_dropped_total": (
        "counter",
        "Rows dropped by the input guard for non-finite or "
        "out-of-range values.",
    ),
    "reghd_guard_rows_gated_total": (
        "counter",
        "Rows removed by the Mahalanobis gate as statistical outliers.",
    ),
    "reghd_guard_score": (
        "histogram",
        "Per-row Mahalanobis guard scores, by kind (leverage / residual).",
    ),
    "reghd_conformal_coverage_total": (
        "counter",
        "Prequentially scored conformal observations, by outcome "
        "(covered / missed).",
    ),
    "reghd_conformal_interval_width": (
        "gauge",
        "Width of the most recent conformal prediction interval.",
    ),
    "reghd_scrub_passes_total": (
        "counter",
        "Memory-scrub passes executed.",
    ),
    "reghd_scrub_corrections_total": (
        "counter",
        "Elements corrected by scrubbing, by kind (shadow / binary).",
    ),
    "reghd_span_seconds": (
        "histogram",
        "Nested span durations, labelled with the full span path.",
    ),
    "reghd_distributed_rounds_total": (
        "counter",
        "Shard map-reduce rounds completed (map + ordered merge + apply).",
    ),
    "reghd_distributed_shards_total": (
        "counter",
        "Shard training tasks executed, by mode (inline / process).",
    ),
    "reghd_distributed_samples_total": (
        "counter",
        "Training samples absorbed through shard deltas.",
    ),
    "reghd_distributed_delta_bytes_total": (
        "counter",
        "ModelDelta payload bytes, by direction (shard / merged).",
    ),
    "reghd_distributed_absorbs_total": (
        "counter",
        "Merged deltas folded into a live stream "
        "(StreamingRegHD.absorb_delta calls).",
    ),
    "reghd_replay_batch_seconds": (
        "histogram",
        "Wall time of one replay batch through the resilient stream "
        "(guard + predict-then-train + watchdog + checkpoint).",
    ),
    "reghd_replay_rows_total": (
        "counter",
        "Rows replayed through the workload engine, by workload.",
    ),
    "reghd_replay_faults_total": (
        "counter",
        "Fault injections applied during replay, by injector and target "
        "(x / y / model).",
    ),
    "reghd_replay_gate_failures_total": (
        "counter",
        "Quality-gate checks failed during replay, by workload and gate.",
    ),
    "reghd_events_dropped_total": (
        "counter",
        "Structured events evicted from the registry's bounded ring "
        "(oldest-first, past max_events).",
    ),
    "reghd_trace_traces_total": (
        "counter",
        "Traces opened (one per stream batch / replay batch / "
        "distributed round while tracing is on).",
    ),
    "reghd_trace_spans_total": (
        "counter",
        "Span records captured into the tracer ring.",
    ),
    "reghd_slo_burn_rate": (
        "gauge",
        "Rolling error-budget burn rate per gate (1.0 = burning exactly "
        "the declared budget), by gate and workload.",
    ),
    "reghd_slo_breaches_total": (
        "counter",
        "SLO windows that transitioned into breach (burn rate crossed "
        "1.0), by gate and workload.",
    ),
    "reghd_flight_dumps_total": (
        "counter",
        "Flight-recorder post-mortem bundles dumped, by reason "
        "(watchdog_rollback / gate_breach / exception / manual).",
    ),
}


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: when set (by :func:`repro.telemetry.tracing.enable_tracing`), a
#: zero-arg callable returning the open trace id or None — histograms
#: use it to attach exemplars without importing the tracing layer.
_EXEMPLAR_PROVIDER = None


def set_exemplar_provider(provider) -> None:
    """Install (or clear, with None) the histogram exemplar provider."""
    global _EXEMPLAR_PROVIDER
    _EXEMPLAR_PROVIDER = provider


class Counter:
    """Monotonic sum, accumulated in per-thread cells.

    ``inc`` is lock-free after a thread's first touch: each thread owns a
    one-element list registered (under the lock, once) into the shared
    cell list, and :attr:`value` merges the cells on read.
    """

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_local", "_cells")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cells: list[list[float]] = []

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to this thread's cell."""
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = [0.0]
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        cell[0] += amount

    @property
    def value(self) -> float:
        """Merged total across all threads."""
        with self._lock:
            cells = list(self._cells)
        return float(sum(cell[0] for cell in cells))


class Gauge:
    """Last-write-wins scalar (float assignment is atomic under the GIL)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: tuple[tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with ``value``."""
        self._value = float(value)

    @property
    def value(self) -> float:
        """The most recently set value."""
        return self._value


class _HistCell:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.counts = np.zeros(n_buckets, dtype=np.int64)
        self.sum = 0.0
        self.count = 0


class Histogram:
    """Fixed-bucket histogram with Prometheus ``le`` (inclusive) semantics.

    ``uppers`` are the finite inclusive upper bounds; one extra overflow
    bucket catches everything above the last bound (exported as
    ``le="+Inf"``).  Observation uses the same per-thread-cell scheme as
    :class:`Counter`.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "uppers", "_lock", "_local", "_cells", "_exemplars"
    )

    def __init__(
        self,
        name: str,
        labels: tuple[tuple[str, str], ...],
        buckets: tuple[float, ...],
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError("histogram needs at least one bucket")
        if any(not np.isfinite(b) for b in bounds):
            raise ConfigurationError(
                f"histogram bounds must be finite, got {bounds}"
            )
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing, got {bounds}"
            )
        self.name = name
        self.labels = labels
        self.uppers = np.asarray(bounds, dtype=np.float64)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._cells: list[_HistCell] = []
        self._exemplars: dict[int, tuple[float, str]] = {}

    def observe(self, value: float) -> None:
        """Record one observation into this thread's cell.

        While tracing is on and a trace is open, the observation may
        also update the bucket's *exemplar*: the trace id of the
        slowest observation seen in that bucket.
        """
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = _HistCell(len(self.uppers) + 1)
            with self._lock:
                self._cells.append(cell)
            self._local.cell = cell
        # side="left": the first bound >= value, so bounds are inclusive
        # upper limits, matching Prometheus `le`.
        idx = int(np.searchsorted(self.uppers, value, side="left"))
        cell.counts[idx] += 1
        cell.sum += value
        cell.count += 1
        provider = _EXEMPLAR_PROVIDER
        if provider is not None:
            trace_id = provider()
            if trace_id is not None:
                with self._lock:
                    current = self._exemplars.get(idx)
                    if current is None or value > current[0]:
                        self._exemplars[idx] = (float(value), trace_id)

    def exemplars(self) -> dict[int, tuple[float, str]]:
        """Per-bucket ``(value, trace_id)`` of the slowest traced
        observation, keyed by bucket index (the last index is the
        overflow bucket).  Empty unless tracing was on."""
        with self._lock:
            return dict(self._exemplars)

    def snapshot(self) -> tuple[np.ndarray, float, int]:
        """Merged ``(bucket_counts, sum, count)`` across all threads.

        ``bucket_counts`` has one entry per finite bound plus the
        overflow bucket, *non*-cumulative.
        """
        with self._lock:
            cells = list(self._cells)
        counts = np.zeros(len(self.uppers) + 1, dtype=np.int64)
        total = 0.0
        n = 0
        for cell in cells:
            counts += cell.counts
            total += cell.sum
            n += cell.count
        return counts, total, n

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by linear interpolation in buckets.

        Standard Prometheus ``histogram_quantile`` semantics: find the
        bucket where the cumulative count crosses ``q * count``, then
        interpolate linearly between the bucket's bounds (the first
        bucket's lower bound is 0, appropriate for the latency metrics
        these histograms hold).  Returns NaN when the histogram is empty
        *and* when every observation landed in the overflow (``+Inf``)
        bucket — no finite bound brackets the data, so any number would
        be fabricated; callers must treat NaN as "unknown", not 0.
        When the quantile merely falls past the last finite bound but
        finite-bucket data exists, the estimate clamps to that bound (a
        lower bound on the true quantile).
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        counts, _, n = self.snapshot()
        if n == 0 or int(counts[:-1].sum()) == 0:
            return float("nan")
        target = q * n
        cumulative = np.cumsum(counts)
        idx = int(np.searchsorted(cumulative, target, side="left"))
        if idx >= len(self.uppers):
            return float(self.uppers[-1])
        lower = 0.0 if idx == 0 else float(self.uppers[idx - 1])
        upper = float(self.uppers[idx])
        in_bucket = int(counts[idx])
        if in_bucket == 0:
            return upper
        below = int(cumulative[idx]) - in_bucket
        fraction = (target - below) / in_bucket
        return lower + fraction * (upper - lower)


class MetricsRegistry:
    """Create-on-first-use store of metrics plus a structured event log.

    Metrics are identified by ``(name, sorted labels)``; asking for an
    existing metric returns the same object, so call sites can look
    handles up on every hit without caching them.  Events are bounded
    (newest ``max_events`` kept) dicts for discrete occurrences — a
    rollback, a guard rejection — where a bare counter loses the story.
    """

    def __init__(self, *, max_events: int = 512):
        self._lock = threading.Lock()
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        self._events: deque[dict] = deque(maxlen=int(max_events))
        self._event_seq = 0
        self._events_dropped = 0

    def _get(self, factory, name: str, labels: dict[str, str]):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = factory(name, key[1])
                    self._metrics[key] = metric
        if not isinstance(metric, (Counter, Gauge, Histogram)):
            raise ConfigurationError(f"unexpected metric type for {name}")
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        metric = self._get(Counter, name, labels)
        if metric.kind != "counter":
            raise ConfigurationError(
                f"{name} is already registered as a {metric.kind}"
            )
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        metric = self._get(Gauge, name, labels)
        if metric.kind != "gauge":
            raise ConfigurationError(
                f"{name} is already registered as a {metric.kind}"
            )
        return metric

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        """The histogram for ``name`` + labels, created on first use.

        ``buckets`` applies only at creation; later lookups return the
        existing histogram with its original bounds.
        """
        metric = self._get(
            lambda n, ls: Histogram(n, ls, buckets), name, labels
        )
        if metric.kind != "histogram":
            raise ConfigurationError(
                f"{name} is already registered as a {metric.kind}"
            )
        return metric

    def record_event(self, kind: str, **fields: object) -> None:
        """Append one structured event (bounded ring buffer).

        Evicting the oldest event past ``max_events`` is *counted*:
        :attr:`events_dropped` and ``reghd_events_dropped_total`` record
        how much of the story the ring lost.  Registered event hooks
        (:func:`add_event_hook`) receive a copy of every event, dropped
        from the ring or not.
        """
        with self._lock:
            self._event_seq += 1
            dropped = (
                self._events.maxlen is not None
                and len(self._events) == self._events.maxlen
            )
            if dropped:
                self._events_dropped += 1
            event = {"seq": self._event_seq, "kind": kind, **fields}
            self._events.append(event)
        if dropped:
            # Outside the lock: counter creation re-enters self._lock.
            self.counter("reghd_events_dropped_total").inc()
        if _EVENT_HOOKS:
            payload = dict(event)
            for hook in _EVENT_HOOKS:
                hook(payload)

    @property
    def events(self) -> list[dict]:
        """The retained structured events, oldest first (copies)."""
        with self._lock:
            return [dict(e) for e in self._events]

    @property
    def events_dropped(self) -> int:
        """Events evicted from the bounded ring since construction."""
        with self._lock:
            return self._events_dropped

    def metrics(self) -> list[Counter | Gauge | Histogram]:
        """All registered metrics, sorted by name then labels."""
        with self._lock:
            values = list(self._metrics.values())
        return sorted(values, key=lambda m: (m.name, m.labels))

    def __len__(self) -> int:
        return len(self._metrics)


# -- the module-level sink --------------------------------------------------

_active: MetricsRegistry | None = None

#: callables receiving a copy of every recorded event, regardless of
#: which registry recorded it — the flight recorder's subscription.
_EVENT_HOOKS: tuple = ()


def add_event_hook(hook) -> None:
    """Register a callable receiving every ``record_event`` payload."""
    global _EVENT_HOOKS
    if hook not in _EVENT_HOOKS:
        _EVENT_HOOKS = _EVENT_HOOKS + (hook,)


def remove_event_hook(hook) -> None:
    """Unregister a hook previously added with :func:`add_event_hook`."""
    global _EVENT_HOOKS
    # Equality, not identity: bound methods (the flight recorder's
    # ``record_event``) are fresh objects on every attribute access.
    _EVENT_HOOKS = tuple(h for h in _EVENT_HOOKS if h != hook)


def enabled() -> bool:
    """Whether a registry is currently collecting."""
    return _active is not None


def active() -> MetricsRegistry | None:
    """The collecting registry, or None when telemetry is off.

    This is the hot-path guard: instrumentation sites fetch it once,
    check for None, and skip all metric work when disabled.
    """
    return _active


def enable(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Switch telemetry on; returns the collecting registry.

    Idempotent: enabling while already enabled keeps the existing
    registry unless a new one is passed explicitly.
    """
    global _active
    if registry is not None:
        _active = registry
    elif _active is None:
        _active = MetricsRegistry()
    return _active


def disable() -> None:
    """Switch telemetry off (drops the registry reference)."""
    global _active
    _active = None


def set_enabled(flag: bool) -> None:
    """Config hook: ``True`` enables (keeping any registry), ``False``
    disables.  Mirrors ``RegHDConfig.telemetry``."""
    if flag:
        enable()
    else:
        disable()


if os.environ.get(TELEMETRY_ENV_VAR, "").strip().lower() in _TRUTHY:
    enable()
