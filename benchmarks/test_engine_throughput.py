"""End-to-end inference engine throughput — float vs the compiled plan.

Serves one fitted quantised ``MultiModelRegHD`` (``cluster_quant=
framework``, ``predict_quant=binary_both``: every heavy stage binarises)
two ways on 1024-row batches across D ∈ {1k, 4k, 10k}: the model's own
float ``predict`` and its compiled, single-threaded ``packed_v2`` plan.
Asserts the acceptance shape: at D ≥ 4096 the packed plan beats the
float path, and the served paths agree numerically.

Writes ``benchmarks/results/engine_throughput.txt``.
"""

from __future__ import annotations

import numpy as np

from _common import call_seconds, save_result
from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.evaluation import render_table

DIMS = (1000, 4096, 10000)
FEATURES = 16
BATCH_ROWS = 1024
REPEATS = 5


def _fitted_model(dim: int) -> MultiModelRegHD:
    """A minimally-trained quantised model (state, not quality, matters)."""
    model = MultiModelRegHD(
        FEATURES,
        RegHDConfig(
            dim=dim,
            n_models=8,
            seed=0,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        ),
    )
    rng = np.random.default_rng(0)
    X = rng.normal(size=(256, FEATURES))
    model.partial_fit(X, np.sin(X[:, 0]) + 0.5 * X[:, 1])
    return model


def test_engine_throughput_sweep():
    rng = np.random.default_rng(1)
    rows, speedups = [], {}
    for dim in DIMS:
        model = _fitted_model(dim)
        plan = model.compile(backend="packed_v2")
        X = rng.normal(size=(BATCH_ROWS, FEATURES))
        rates = {}
        for variant, predict in (
            ("float", model.predict),
            ("packed_v2", plan.predict),
        ):
            seconds = call_seconds(lambda: predict(X), REPEATS)
            rates[variant] = BATCH_ROWS * REPEATS / seconds.sum()
            rows.append(
                {
                    "dim": dim,
                    "variant": variant,
                    "rows_per_s": rates[variant],
                    "p50_ms": np.percentile(seconds, 50) * 1e3,
                    "p99_ms": np.percentile(seconds, 99) * 1e3,
                }
            )
        speedups[dim] = rates["packed_v2"] / rates["float"]
    lines = [
        render_table(
            rows,
            precision=2,
            title=f"inference engine throughput (batch={BATCH_ROWS} rows)",
        ),
        "",
    ]
    lines += [
        f"D={dim:>6}: packed_v2 {ratio:.2f}x vs float"
        for dim, ratio in speedups.items()
    ]
    save_result("engine_throughput", "\n".join(lines))
    print("\n" + "\n".join(lines))

    # Acceptance shape: packed wins for the quantised config at D >= 4096.
    for dim, ratio in speedups.items():
        if dim >= 4096:
            assert ratio > 1.0, (
                f"packed_v2 slower than float at D={dim}: {ratio:.2f}x"
            )


def test_variants_agree_numerically():
    """The served paths are the same function, not different models."""
    model = _fitted_model(dim=1000)
    X = np.random.default_rng(1).normal(size=(257, FEATURES))
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
