"""End-to-end inference engine throughput — float vs the compiled plan.

Runs the same sweep the CLI ``bench`` subcommand runs
(:func:`repro.engine.run_inference_benchmark`): a fitted quantised
``MultiModelRegHD`` served two ways — the model's own float path and the
compiled ``packed_v2`` plan — across D ∈ {1k, 4k, 10k}.  Asserts the
acceptance shape: at D ≥ 4096 the packed plan must not lose to the
float path for the quantised configuration, and the served paths must
agree numerically.

Writes ``benchmarks/results/engine_throughput.txt``; the canonical JSON
record at the repo root (``BENCH_inference.json``) is produced by
``python -m repro.cli bench``.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import save_result
from repro.engine import run_inference_benchmark
from repro.engine.bench import DEFAULT_DIMS, _fitted_model
from repro.evaluation import render_table


@pytest.fixture(scope="module")
def record():
    return run_inference_benchmark(
        dims=DEFAULT_DIMS, batch_rows=1024, repeats=5
    )


def test_engine_throughput_sweep(record):
    rows = [
        {
            "dim": r["dim"],
            "variant": r["variant"],
            "rows_per_s": r["rows_per_s"],
            "p50_ms": r["p50_ms"],
            "p99_ms": r["p99_ms"],
        }
        for r in record["results"]
    ]
    table = render_table(
        rows,
        precision=2,
        title="inference engine throughput "
        f"(batch={record['params']['batch_rows']} rows)",
    )
    lines = [table, ""]
    for dim, ratios in record["speedups"].items():
        lines.append(
            f"D={dim:>6}: packed_v2 {ratios['packed_v2_vs_float']:.2f}x "
            "vs float"
        )
    save_result("engine_throughput", "\n".join(lines))
    print("\n" + "\n".join(lines))

    # Acceptance shape: packed wins for the quantised config at D >= 4096.
    for dim, ratios in record["speedups"].items():
        if int(dim) >= 4096:
            assert ratios["packed_v2_vs_float"] > 1.0, (
                f"packed_v2 slower than float at D={dim}: "
                f"{ratios['packed_v2_vs_float']:.2f}x"
            )


def test_variants_agree_numerically():
    """The served paths are the same function, not different models."""
    model = _fitted_model(dim=1000, features=16, seed=0)
    X = np.random.default_rng(1).normal(size=(257, 16))
    ref = model.predict(X)
    packed = model.compile(backend="packed_v2")
    unpacked = model.compile(backend="dense")
    threaded = model.compile(backend="packed_v2", tile_rows=64, n_workers=4)
    np.testing.assert_allclose(packed.predict(X), ref, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(
        threaded.predict(X), ref, rtol=1e-9, atol=1e-10
    )
    np.testing.assert_allclose(unpacked.predict(X), ref, rtol=1e-9, atol=1e-10)
    remat = model.compile(backend="packed_v2", rematerialize=True)
    np.testing.assert_array_equal(remat.predict(X), packed.predict(X))
