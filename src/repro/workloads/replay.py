"""The replay engine: drive any workload through the resilient stream.

``ReplayEngine.run`` materialises a workload's dataset, schedules its
traffic, and feeds the batches through a fully-armed
:class:`~repro.reliability.resilient.ResilientStreamingRegHD` — input
guard, Page-Hinkley drift detection, watchdog with checkpoint rollback,
memory scrubbing when the fault plan targets the model, and streaming
conformal intervals — while injecting the declared drift and faults.
The SLO report scores the workload's quality gate from the exact
percentiles of the measured per-batch update times plus the prequential
tail error and conformal coverage; each batch time also feeds the
``reghd_replay_batch_seconds`` telemetry histogram.

All data-side randomness (traffic schedule, fault draws) derives from
the run seed, so two replays of the same workload at the same seed score
identical quality numbers; only the wall-clock latencies vary.

Observability hooks (all opt-in, zero-cost when unused): every batch
runs under a :func:`repro.telemetry.tracing.trace` context, the
workload's gate feeds an :class:`~repro.telemetry.slo.SLOTracker`
(rolling burn rates, exported for ``repro top`` via ``live_out``
snapshots), and a gate breach or watchdog rollback dumps the armed
flight recorder's post-mortem bundle.  ``force_breach`` substitutes an
impossible RMSE ceiling so CI can exercise the breach path on demand.
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.config import RegHDConfig
from repro.datasets.preprocessing import StandardScaler
from repro.encoding.permutation import SequenceEncoder
from repro.noise.injection import INJECTORS, corrupt_model
from repro.reliability.resilient import ResilientStreamingRegHD
from repro.reliability.watchdog import Watchdog
from repro.robust.conformal import AdaptiveConformal
from repro.streaming import PageHinkley
from repro.telemetry import flight as _flight
from repro.telemetry import metrics as _metrics
from repro.telemetry import slo as _slo
from repro.telemetry import timing as _timing
from repro.telemetry import tracing as _tracing
from repro.utils.rng import derive_generator
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

#: model dimensionality cap applied in quick (CI smoke) mode.
QUICK_DIM = 512

#: the ``benchmark`` tag of :func:`workload_bench_record`'s report.
BENCHMARK_NAME = "reghd-workload-replay"


@dataclass(frozen=True)
class GateCheck:
    """One scored SLO: the measured value against its declared limit."""

    gate: str
    value: float
    limit: float
    passed: bool


@dataclass(frozen=True)
class SLOReport:
    """Structured outcome of one workload replay.

    Quality fields (``tail_rmse``, ``coverage``) are deterministic under
    a fixed seed; the latency percentiles are exact quantiles of the
    measured per-batch update times and reflect the machine the replay
    ran on.
    """

    workload: str
    dataset: str
    seed: int
    quick: bool
    n_rows: int
    n_batches: int
    sim_seconds: float  # simulated arrival span of the traffic schedule
    tail_rmse: float
    coverage: float | None
    p50_latency_ms: float
    p99_latency_ms: float
    drift_detections: int
    rollbacks: int
    skipped_batches: int
    guard_repaired_values: int
    guard_dropped_rows: int
    guard_gated_rows: int
    faults_injected: int
    checks: tuple[GateCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        """JSON-ready representation (the BENCH record entry)."""
        d = asdict(self)
        d["checks"] = list(d["checks"])  # tuples do not survive JSON
        return d


def _quantile_ms(batch_seconds: list[float], q: float) -> float:
    """The exact ``q`` quantile of the measured batch times, in ms."""
    return float(np.quantile(batch_seconds, q)) * 1e3


class ReplayEngine:
    """Replays registered workloads and scores their quality gates.

    Parameters
    ----------
    quick:
        CI smoke mode: quick dataset kwargs, capped model dimensionality.
    seed:
        Base seed for model init, traffic schedule and fault draws.
    trace:
        Arm the tracer for the run (joins an already-armed one); span
        records accumulate on :attr:`tracer` for Chrome-trace export.
    flight_dir:
        Arm the flight recorder with this dump directory — watchdog
        rollbacks and gate breaches leave post-mortem bundles there.
    live_out / live_every:
        Write an atomic ``repro top`` snapshot file every N batches.
    force_breach:
        Substitute an unmeetable RMSE ceiling (keeping the workload's
        other limits), guaranteeing a gate breach — the CI lever for
        exercising the breach/dump path on demand.
    """

    def __init__(
        self,
        *,
        quick: bool = False,
        seed: int = 0,
        trace: bool = False,
        flight_dir: str | None = None,
        live_out: str | None = None,
        live_every: int = 1,
        force_breach: bool = False,
    ):
        self.quick = bool(quick)
        self.seed = int(seed)
        self.trace = bool(trace)
        self.flight_dir = flight_dir
        self.live_out = live_out
        self.live_every = int(live_every)
        self.force_breach = bool(force_breach)
        #: the tracer that collected this engine's runs (set by `run`).
        self.tracer: _tracing.Tracer | None = None

    def _effective_gate(self, workload: Workload):
        """The gate actually scored; ``force_breach`` makes it unmeetable."""
        if not self.force_breach:
            return workload.gate
        return dataclasses.replace(workload.gate, rmse_ceiling=1e-9)

    # -- stream construction -------------------------------------------------

    def _build_stream(
        self,
        workload: Workload,
        in_features: int,
        n_batches: int,
        checkpoint_dir: str,
    ) -> ResilientStreamingRegHD:
        dim = min(workload.dim, QUICK_DIM) if self.quick else workload.dim
        config = RegHDConfig(dim=dim, n_models=workload.n_models, seed=self.seed)
        encoder = None
        if workload.encoder == "sequence":
            encoder = SequenceEncoder(in_features, dim, seed=self.seed)
        conformal = AdaptiveConformal(
            alpha=0.1, window=max(32, min(512, n_batches * 8)), gamma=0.005
        )
        if self.force_breach:
            # An unsatisfiable envelope: any post-baseline error trips
            # FAILED, so the first checkpointed batch onward rolls back
            # — the deterministic lever for exercising the rollback /
            # post-mortem path on demand (CI's forced-breach leg).
            watchdog = Watchdog(
                baseline_batches=2,
                window=1,
                warn_factor=1.0,
                fail_factor=1.0,
            )
        else:
            watchdog = Watchdog(
                baseline_batches=max(3, n_batches // 6),
                window=4,
                warn_factor=3.0,
                fail_factor=8.0,
            )
        return ResilientStreamingRegHD(
            in_features,
            config,
            encoder=encoder,
            guard=workload.guard_policy,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=max(5, n_batches // 8),
            watchdog=watchdog,
            scrub_every=5 if workload.has_model_faults else 0,
            detector=PageHinkley(delta=0.005, threshold=3.0),
            conformal=conformal,
            forgetting=0.997,
        )

    # -- fault application ---------------------------------------------------

    def _apply_faults(
        self,
        workload: Workload,
        stream: ResilientStreamingRegHD,
        X_batch: np.ndarray,
        y_batch: np.ndarray,
        progress: float,
        batch_index: int,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        injected = 0
        registry = _metrics.active()
        for fault_index, fault in enumerate(workload.faults):
            if not fault.active(progress, batch_index):
                continue
            rng = derive_generator(self.seed, batch_index, fault_index)
            if fault.target == "x":
                X_batch = INJECTORS[fault.injector](X_batch, fault.rate, rng)
            elif fault.target == "y":
                y_batch = INJECTORS[fault.injector](y_batch, fault.rate, rng)
            else:  # model: out-of-band memory corruption
                corrupt_model(stream.model, fault.injector, fault.rate, rng)
                stream.invalidate_plan()
            injected += 1
            if registry is not None:
                registry.counter(
                    "reghd_replay_faults_total",
                    injector=fault.injector,
                    target=fault.target,
                ).inc()
        return X_batch, y_batch, injected

    # -- the replay loop -----------------------------------------------------

    def run(self, workload: Workload | str) -> SLOReport:
        """Replay one workload end-to-end and score its quality gate."""
        if isinstance(workload, str):
            workload = get_workload(workload)
        previous = _metrics.active()
        registry = previous if previous is not None else _metrics.MetricsRegistry()
        _metrics.enable(registry)
        # Arm the optional observability sinks; pre-armed sinks (e.g. a
        # CLI-level session shared across several workloads) are reused
        # and left in place on exit.
        previous_tracer = _tracing.active_tracer()
        if self.trace or self.flight_dir is not None:
            self.tracer = _tracing.enable_tracing()
        previous_recorder = _flight.active_recorder()
        if self.flight_dir is not None and previous_recorder is None:
            _flight.enable_flight(dump_dir=self.flight_dir)
        try:
            with tempfile.TemporaryDirectory(prefix="reghd-replay-") as tmp:
                return self._run(workload, registry, tmp)
        finally:
            if self.flight_dir is not None and previous_recorder is None:
                _flight.disable_flight()
            if previous_tracer is None and self.tracer is not None:
                _tracing.disable_tracing()
            if previous is None:
                _metrics.disable()

    def _run(
        self, workload: Workload, registry: _metrics.MetricsRegistry, tmp: str
    ) -> SLOReport:
        dataset = workload.load(quick=self.quick, seed=self.seed)
        scaler = StandardScaler().fit(dataset.X)
        X = scaler.transform(dataset.X)
        y = dataset.y
        n_rows = len(y)
        schedule = workload.traffic.schedule(n_rows, seed=self.seed)
        stream = self._build_stream(
            workload, X.shape[1], len(schedule), tmp
        )

        gate = self._effective_gate(workload)
        slo_tracker = _slo.SLOTracker.from_gate(
            gate,
            workload=workload.name,
            window=max(8, min(_slo.DEFAULT_WINDOW, len(schedule))),
        )
        snapshot_writer = (
            _slo.SnapshotWriter(self.live_out, every=self.live_every)
            if self.live_out is not None
            else None
        )

        latency = registry.histogram(
            "reghd_replay_batch_seconds", workload=workload.name
        )
        rows_counter = registry.counter(
            "reghd_replay_rows_total", workload=workload.name
        )
        faults_injected = 0
        batch_seconds: list[float] = []  # measured update time per batch
        batch_quality: list[tuple[int, float]] = []  # (rows, prequential mse)
        skipped = 0
        rows_done = 0
        run_start = _timing.monotonic()
        for batch in schedule:
            progress = batch.start / n_rows
            X_batch = X[batch.rows]
            y_batch = workload.drifted_targets(y[batch.rows], progress)
            X_batch, y_batch, injected = self._apply_faults(
                workload, stream, X_batch, y_batch, progress, batch.index
            )
            faults_injected += injected
            with _tracing.trace(
                "replay/batch", workload=workload.name, batch=batch.index
            ):
                t0 = _timing.monotonic()
                report = stream.update(X_batch, y_batch)
                batch_seconds.append(_timing.monotonic() - t0)
            latency.observe(batch_seconds[-1])
            rows_counter.inc(batch.size)
            rows_done += batch.size
            if report.skipped:
                skipped += 1
            if report.prequential_mse is not None:
                batch_quality.append((batch.size, report.prequential_mse))

            # Continuous SLO evaluation: every scored batch updates the
            # rolling burn rates the live console renders.
            observed: dict = {"latency_ms": batch_seconds[-1] * 1e3}
            if report.prequential_mse is not None:
                observed["rmse"] = float(np.sqrt(report.prequential_mse))
            if stream.conformal is not None and stream.conformal.n_scored:
                observed["coverage"] = float(stream.conformal.coverage)
            slo_tracker.observe(**observed)
            if snapshot_writer is not None:
                snapshot_writer.write(
                    self._console_snapshot(
                        workload.name,
                        slo_tracker,
                        registry,
                        batch_seconds,
                        batches=batch.index + 1,
                        rows=rows_done,
                        elapsed=_timing.monotonic() - run_start,
                    ),
                    force=batch.index + 1 == len(schedule),
                )

        tail_rmse = self._tail_rmse(batch_quality, gate.tail_fraction)
        coverage = (
            stream.conformal.coverage if stream.conformal.n_scored else None
        )
        p50_ms = _quantile_ms(batch_seconds, 0.5)
        p99_ms = _quantile_ms(batch_seconds, 0.99)
        checks = self._score_gate(
            workload.name, gate, registry, tail_rmse, coverage, p99_ms
        )
        if not all(c.passed for c in checks):
            _flight.auto_dump(
                "gate_breach",
                workload=workload.name,
                failed_gates=[c.gate for c in checks if not c.passed],
                tail_rmse=tail_rmse,
                burn_rates={
                    w.name: round(w.burn_rate, 6)
                    for w in slo_tracker.windows.values()
                },
            )
        return SLOReport(
            workload=workload.name,
            dataset=dataset.name,
            seed=self.seed,
            quick=self.quick,
            n_rows=n_rows,
            n_batches=len(schedule),
            sim_seconds=float(schedule[-1].arrivals[-1]),
            tail_rmse=tail_rmse,
            coverage=coverage,
            p50_latency_ms=p50_ms,
            p99_latency_ms=p99_ms,
            drift_detections=len(stream.history.drift_events),
            rollbacks=len(stream.rollbacks),
            skipped_batches=skipped,
            guard_repaired_values=self._guard_total(stream, "n_repaired_values"),
            guard_dropped_rows=self._guard_total(stream, "n_dropped_rows"),
            guard_gated_rows=self._guard_total(stream, "n_gated_rows"),
            faults_injected=faults_injected,
            checks=checks,
            passed=all(c.passed for c in checks),
        )

    def run_all(
        self, names: tuple[str, ...] | list[str]
    ) -> list[SLOReport]:
        """Replay several workloads in name order."""
        return [self.run(name) for name in names]

    # -- console snapshots ---------------------------------------------------

    @staticmethod
    def _console_snapshot(
        workload_name: str,
        slo_tracker: "_slo.SLOTracker",
        registry: _metrics.MetricsRegistry,
        batch_seconds: list[float],
        *,
        batches: int,
        rows: int,
        elapsed: float,
    ) -> dict:
        """One `repro top` frame's worth of state, JSON-ready."""
        snapshot = {
            "kind": _slo.SNAPSHOT_KIND,
            "workload": workload_name,
            "batches": batches,
            "rows": rows,
            "qps": round(rows / elapsed, 3) if elapsed > 0 else None,
            "p50_ms": _quantile_ms(batch_seconds, 0.5),
            "p99_ms": _quantile_ms(batch_seconds, 0.99),
            "slo": slo_tracker.state(),
        }
        snapshot.update(_slo.registry_console_stats(registry))
        return snapshot

    # -- scoring -------------------------------------------------------------

    @staticmethod
    def _tail_rmse(
        batch_quality: list[tuple[int, float]], tail_fraction: float
    ) -> float:
        """Row-weighted RMSE over the trailing fraction of scored rows."""
        if not batch_quality:
            return float("nan")
        total = sum(rows for rows, _ in batch_quality)
        target = max(1, int(round(tail_fraction * total)))
        rows_seen = 0
        weighted = 0.0
        for rows, mse in reversed(batch_quality):
            take = min(rows, target - rows_seen)
            weighted += take * mse
            rows_seen += take
            if rows_seen >= target:
                break
        return float(np.sqrt(weighted / rows_seen))

    @staticmethod
    def _score_gate(
        workload_name: str,
        gate,
        registry: _metrics.MetricsRegistry,
        tail_rmse: float,
        coverage: float | None,
        p99_ms: float,
    ) -> tuple[GateCheck, ...]:
        checks: list[GateCheck] = []
        if gate.rmse_ceiling is not None:
            checks.append(
                GateCheck(
                    gate="rmse_ceiling",
                    value=tail_rmse,
                    limit=gate.rmse_ceiling,
                    passed=bool(np.isfinite(tail_rmse))
                    and tail_rmse <= gate.rmse_ceiling,
                )
            )
        if gate.coverage_floor is not None:
            measured = -1.0 if coverage is None else float(coverage)
            checks.append(
                GateCheck(
                    gate="coverage_floor",
                    value=measured,
                    limit=gate.coverage_floor,
                    passed=measured >= gate.coverage_floor,
                )
            )
        if gate.p99_latency_ms is not None:
            checks.append(
                GateCheck(
                    gate="p99_latency_ms",
                    value=p99_ms,
                    limit=gate.p99_latency_ms,
                    passed=p99_ms <= gate.p99_latency_ms,
                )
            )
        for check in checks:
            if not check.passed:
                registry.counter(
                    "reghd_replay_gate_failures_total",
                    workload=workload_name,
                    gate=check.gate,
                ).inc()
        return tuple(checks)

    @staticmethod
    def _guard_total(stream: ResilientStreamingRegHD, field_name: str) -> int:
        return int(
            sum(
                getattr(r.guard, field_name)
                for r in stream.history.reports
                if getattr(r, "guard", None) is not None
            )
        )


def workload_bench_record(
    reports: list[SLOReport], *, quick: bool, seed: int
) -> dict:
    """The JSON SLO report (``repro replay --output``) for replay reports,
    tagged with :data:`BENCHMARK_NAME`."""
    return {
        "benchmark": BENCHMARK_NAME,
        "quick": bool(quick),
        "seed": int(seed),
        "params": {
            "n_workloads": len(reports),
            "quick_dim": QUICK_DIM,
        },
        "results": [r.to_dict() for r in reports],
    }
