"""Telemetry overhead guard: instrumented packed serving stays within 3 %.

The acceptance criterion for the observability layer is that turning the
metrics sink on costs less than 3 % of packed serving throughput — the
hot path reads one module global and, when enabled, a handful of counter
increments per *tile*, never per row.  This benchmark serves the same
batch through the same compiled packed plan with telemetry off and on.

The comparison is paired: each pair times one call with telemetry off
and one with it on, back to back (alternating which goes first), and
the overhead is the median of the pairs' on/off ratios minus one.  A
host whose speed drifts in phases slows both calls of a pair alike, so
the ratio cancels the phase that a comparison of two minima taken over
the whole run keeps, and the median ignores the pairs a phase change
splits.

Writes ``benchmarks/results/telemetry_overhead.txt`` and
``benchmarks/results/tracing_overhead.txt``.
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
#: off/on pairs per comparison
PAIRS = 30


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


def _paired_overhead(off, on) -> tuple[float, float, float]:
    """``(overhead, off_s, on_s)`` over :data:`PAIRS` alternating pairs.

    ``off(i)`` and ``on(i)`` each set up their telemetry state, serve
    one batch and return its latency.  The overhead is the median of the
    pairs' on/off ratios minus one; the latencies are the medians of
    each side.
    """
    off(-1)  # warm-up: caches, allocator, branch predictors
    offs, ons = [], []
    for i in range(PAIRS):
        if i % 2:
            ons.append(on(i))
            offs.append(off(i))
        else:
            offs.append(off(i))
            ons.append(on(i))
    return (
        float(np.median(np.divide(ons, offs))) - 1.0,
        float(np.median(offs)),
        float(np.median(ons)),
    )


def test_telemetry_overhead_under_three_percent():
    plan, X = _serving_setup()
    registry = telemetry.enable(telemetry.MetricsRegistry())

    def timed(i: int) -> float:
        start = monotonic()
        plan.predict(X)
        return monotonic() - start

    def off(i: int) -> float:
        telemetry.disable()
        return timed(i)

    def on(i: int) -> float:
        telemetry.enable(registry)
        return timed(i)

    try:
        overhead, baseline, instrumented = _paired_overhead(off, on)
    finally:
        telemetry.disable()

    lines = [
        f"packed serving, D={DIM}, {ROWS} rows, median of {PAIRS} pairs:",
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

    def off(i: int) -> float:
        tracing.disable_tracing()
        telemetry.disable()
        start = monotonic()
        plan.predict(X)
        return monotonic() - start

    def on(i: int) -> float:
        # One request = one trace, the serving pattern.
        telemetry.enable_tracing(tracer)
        start = monotonic()
        with telemetry.trace("serve", batch=i):
            plan.predict(X)
        return monotonic() - start

    try:
        overhead, baseline, traced = _paired_overhead(off, on)
    finally:
        tracing.disable_tracing()
        telemetry.disable()

    lines = [
        f"packed serving, D={DIM}, {ROWS} rows, median of {PAIRS} pairs:",
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
    assert tracer.n_traces == PAIRS
    assert tracer.n_spans > tracer.n_traces

    assert overhead < MAX_TRACED_OVERHEAD, (
        f"tracing costs {overhead:.1%} of packed serving throughput "
        f"(bound {MAX_TRACED_OVERHEAD:.0%})"
    )
