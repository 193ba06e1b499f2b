"""Telemetry overhead guard: instrumented packed serving stays within 3 %.

The acceptance criterion for the observability layer is that turning the
metrics sink on costs less than 3 % of packed serving throughput — the
hot path reads one module global and, when enabled, a handful of counter
increments per *tile*, never per row.  This benchmark serves the same
batch through the same compiled packed plan with telemetry off and on
and compares min-of-N latencies (min is the standard noise-robust
estimator for a fixed workload: every source of interference only adds
time).

Writes ``benchmarks/results/telemetry_overhead.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import save_result
from repro import telemetry
from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.telemetry.timing import monotonic

#: acceptance bound from the ISSUE: < 3 % regression on packed serving.
MAX_OVERHEAD = 0.03

#: bound with full tracing armed (per-predict trace contexts + span
#: records + exemplars): < 5 % on the same packed serving path.
MAX_TRACED_OVERHEAD = 0.05

DIM = 4096
ROWS = 2048
FEATURES = 16
REPEATS = 30


@pytest.fixture(autouse=True)
def _restore_sink():
    previous = telemetry.active()
    telemetry.disable()
    yield
    if previous is not None:
        telemetry.enable(previous)
    else:
        telemetry.disable()


def _serving_setup():
    """A fitted quantised model, its compiled packed plan, and a batch."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(512, FEATURES))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    model = MultiModelRegHD(
        FEATURES,
        RegHDConfig(
            dim=DIM,
            n_models=8,
            seed=0,
            backend="packed_v2",
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        ),
    )
    model.partial_fit(X, y)
    plan = model.compile()
    X_serve = rng.normal(size=(ROWS, FEATURES))
    return plan, X_serve


def test_telemetry_overhead_under_three_percent():
    plan, X = _serving_setup()
    registry = telemetry.enable(telemetry.MetricsRegistry())

    # Interleave the off/on measurements: thermal and scheduler drift
    # over the ~20 s run lands on both sides equally instead of biasing
    # whichever side ran second.
    telemetry.disable()
    plan.predict(X)  # warm-up: caches, allocator, branch predictors
    baseline = instrumented = np.inf
    try:
        for _ in range(REPEATS):
            telemetry.disable()
            start = monotonic()
            plan.predict(X)
            baseline = min(baseline, monotonic() - start)

            telemetry.enable(registry)
            start = monotonic()
            plan.predict(X)
            instrumented = min(instrumented, monotonic() - start)
    finally:
        telemetry.disable()

    overhead = instrumented / baseline - 1.0
    lines = [
        f"packed serving, D={DIM}, {ROWS} rows, min of {REPEATS}:",
        f"  telemetry off : {baseline * 1e3:8.3f} ms",
        f"  telemetry on  : {instrumented * 1e3:8.3f} ms",
        f"  overhead      : {overhead * 100:+.2f} %  (bound {MAX_OVERHEAD:.0%})",
        f"  metrics active: {len(registry)} series recorded while on",
    ]
    save_result("telemetry_overhead", "\n".join(lines))
    print("\n" + "\n".join(lines))

    # The serving pass must actually have been observed while enabled —
    # a 0 % "overhead" from a dead sink would be a vacuous pass.
    latency_series = [
        m for m in registry.metrics()
        if m.name == "reghd_serving_latency_seconds"
    ]
    assert latency_series, "instrumented run recorded no serving latency"

    assert overhead < MAX_OVERHEAD, (
        f"telemetry costs {overhead:.1%} of packed serving throughput "
        f"(bound {MAX_OVERHEAD:.0%})"
    )


def test_tracing_overhead_under_five_percent():
    from repro.telemetry import tracing

    plan, X = _serving_setup()
    tracer = tracing.Tracer()

    # Interleave the off/on measurements: thermal and scheduler drift
    # over the ~20 s run then lands on both sides equally instead of
    # biasing whichever side ran second.  One request = one trace, the
    # serving pattern.
    telemetry.disable()
    tracing.disable_tracing()
    plan.predict(X)  # warm-up: caches, allocator, branch predictors
    baseline = traced = np.inf
    try:
        for i in range(REPEATS):
            tracing.disable_tracing()
            telemetry.disable()
            start = monotonic()
            plan.predict(X)
            baseline = min(baseline, monotonic() - start)

            telemetry.enable_tracing(tracer)
            start = monotonic()
            with telemetry.trace("serve", batch=i):
                plan.predict(X)
            traced = min(traced, monotonic() - start)
    finally:
        tracing.disable_tracing()
        telemetry.disable()

    overhead = traced / baseline - 1.0
    lines = [
        f"packed serving, D={DIM}, {ROWS} rows, min of {REPEATS}:",
        f"  tracing off : {baseline * 1e3:8.3f} ms",
        f"  tracing on  : {traced * 1e3:8.3f} ms",
        f"  overhead    : {overhead * 100:+.2f} %"
        f"  (bound {MAX_TRACED_OVERHEAD:.0%})",
        f"  traces      : {tracer.n_traces}, spans {tracer.n_spans}",
    ]
    save_result("tracing_overhead", "\n".join(lines))
    print("\n" + "\n".join(lines))

    # Vacuous-pass guard: the traced runs must have produced real trace
    # structure (root spans plus the executor's per-tile stage records).
    assert tracer.n_traces == REPEATS
    assert tracer.n_spans > tracer.n_traces

    assert overhead < MAX_TRACED_OVERHEAD, (
        f"tracing costs {overhead:.1%} of packed serving throughput "
        f"(bound {MAX_TRACED_OVERHEAD:.0%})"
    )
