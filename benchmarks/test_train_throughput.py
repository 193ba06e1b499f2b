"""Training throughput — the dense vs the packed_v2 kernel backend.

Times the training hot loop of a quantised ``MultiModelRegHD``
(``cluster_quant=framework``, ``predict_quant=binary_both``: both the
similarity search and the model dot products binarise) on both
registered backends at D ∈ {4096, 10000}: epochs of ``fit_epoch`` +
``end_epoch`` over 2048 rows (the per-epoch re-binarisation is part of
the Sec.-3 framework, not overhead), on the one training query ``fit``
builds, so ``packed_v2`` packs the rows once, before the timed region.
Each epoch visits the rows in a fresh permutation from the model's fit
shuffle generator, as ``IterativeTrainer`` draws them, so the timed
mini-batches are the row copies ``fit`` slices.
Encoding runs once outside the timed region too, so both backends
consume identical pre-encoded rows and the ratio isolates kernel
arithmetic.

The comparison is paired: after one warm-up epoch each, every pair
times one epoch per backend back to back, alternating which goes first,
and the speedup is the median of the pairs' dense/packed_v2 ratios, so
a host speed phase that lands on one backend's epochs cannot flip it.
Asserts the acceptance shape: the packed backend beats the dense
reference at D ≥ 4096.

Writes ``benchmarks/results/train_throughput.txt``.
"""

from __future__ import annotations

import numpy as np

from _common import paired_seconds, save_result
from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.evaluation import render_table

DIMS = (4096, 10000)
BACKENDS = ("dense", "packed_v2")
FEATURES = 16
ROWS = 2048
#: timed dense/packed_v2 epoch pairs per D
PAIRS = 5


def _epoch(backend: str, dim: int, X: np.ndarray, y: np.ndarray):
    """One training epoch of a fresh model on ``backend``, as a callable."""
    model = MultiModelRegHD(
        FEATURES,
        RegHDConfig(
            dim=dim,
            n_models=8,
            seed=0,
            backend=backend,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        ),
    )
    query = model._encoded_operand(model._encode_query(X))
    model.scaler.fit(y)
    y_scaled = model.scaler.transform(y)
    shuffle = model._fit_shuffle_rng()

    def epoch():
        model.fit_epoch(query, y_scaled, shuffle.permutation(len(y)))
        model.end_epoch()

    return epoch


def test_training_throughput_sweep():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(ROWS, FEATURES))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    rows, speedups = [], {}
    for dim in DIMS:
        seconds = dict(
            zip(
                BACKENDS,
                paired_seconds(
                    *(_epoch(backend, dim, X, y) for backend in BACKENDS), PAIRS
                ),
            )
        )
        for backend in BACKENDS:
            rows.append(
                {
                    "dim": dim,
                    "backend": backend,
                    "rows_per_s": ROWS * PAIRS / seconds[backend].sum(),
                    "mean_epoch_ms": seconds[backend].mean() * 1e3,
                }
            )
        speedups[dim] = float(
            np.median(seconds["dense"] / seconds["packed_v2"])
        )
    lines = [
        render_table(
            rows,
            precision=2,
            title=f"training throughput ({ROWS} rows, {PAIRS} epoch pairs)",
        ),
        "",
    ]
    lines += [
        f"D={dim:>6}: packed_v2 {ratio:.2f}x vs dense (median paired ratio)"
        for dim, ratio in speedups.items()
    ]
    save_result("train_throughput", "\n".join(lines))
    print("\n" + "\n".join(lines))

    # Acceptance shape: packed training wins at paper scale.
    for dim, ratio in speedups.items():
        if dim >= 4096:
            assert ratio > 1.0, (
                f"packed training slower than dense at D={dim}: {ratio:.2f}x"
            )
