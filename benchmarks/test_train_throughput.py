"""Training throughput — the dense vs the packed_v2 kernel backend.

Times the training hot loop of a quantised ``MultiModelRegHD``
(``cluster_quant=framework``, ``predict_quant=binary_both``: both the
similarity search and the model dot products binarise) on both
registered backends at D ∈ {4096, 10000}: 2048 rows x 3 epochs of
``fit_epoch`` + ``end_epoch`` (the per-epoch re-binarisation is part of
the Sec.-3 framework, not overhead), on the one training query ``fit``
builds, so ``packed_v2`` packs the rows once, before the timed region.
Each epoch visits the rows in a fresh permutation from the model's fit
shuffle generator, as ``IterativeTrainer`` draws them, so the timed
mini-batches are the row copies ``fit`` slices.
Encoding runs once outside the timed region too, so both backends
consume identical pre-encoded rows and the ratio isolates kernel
arithmetic.  Asserts the acceptance shape: the packed backend beats the
dense reference at D ≥ 4096.

Writes ``benchmarks/results/train_throughput.txt``.
"""

from __future__ import annotations

import numpy as np

from _common import call_seconds, save_result
from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.evaluation import render_table

DIMS = (4096, 10000)
BACKENDS = ("dense", "packed_v2")
FEATURES = 16
ROWS = 2048
EPOCHS = 3


def _epoch_seconds(backend: str, dim: int, X: np.ndarray, y: np.ndarray):
    """Wall seconds of ``EPOCHS`` timed epochs after one warm-up epoch."""
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

    return call_seconds(epoch, EPOCHS)


def test_training_throughput_sweep():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(ROWS, FEATURES))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    rows, speedups = [], {}
    for dim in DIMS:
        rates = {}
        for backend in BACKENDS:
            seconds = _epoch_seconds(backend, dim, X, y)
            rates[backend] = ROWS * EPOCHS / seconds.sum()
            rows.append(
                {
                    "dim": dim,
                    "backend": backend,
                    "rows_per_s": rates[backend],
                    "mean_epoch_ms": seconds.mean() * 1e3,
                }
            )
        speedups[dim] = rates["packed_v2"] / rates["dense"]
    lines = [
        render_table(
            rows,
            precision=2,
            title=f"training throughput ({ROWS} rows x {EPOCHS} epochs)",
        ),
        "",
    ]
    lines += [
        f"D={dim:>6}: packed_v2 {ratio:.2f}x vs dense"
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
