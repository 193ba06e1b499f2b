"""Quantisers used by RegHD's Section-3 binarisation framework.

The framework keeps an *integer* (float-stored) working copy of each cluster
and model hypervector and periodically derives a *binary* copy from it with a
single comparison per element ("This quantization assigns each element of
cluster hypervector to 0 or 1 by exploiting a single comparison operation",
Sec. 3.1).  These helpers implement that comparison plus the conversions
between the binary {0,1} and bipolar {-1,+1} views.
"""

from __future__ import annotations

import numpy as np

from repro.types import ArrayLike, BinaryArray, BipolarArray, SeedLike
from repro.utils.rng import as_generator


def binarize(vector: ArrayLike, *, threshold: float = 0.0) -> BinaryArray:
    """Quantise to binary {0, 1}: ``1`` where the element exceeds ``threshold``.

    The single-comparison quantiser of Sec. 3.1.  The default threshold of 0
    is the natural choice for sign-symmetric hypervectors (zero-initialised
    models updated with ±-balanced encodings).
    """
    arr = np.asarray(vector, dtype=np.float64)
    return (arr > threshold).astype(np.uint8)


def bipolarize(vector: ArrayLike, *, tie_value: int = 1) -> BipolarArray:
    """Quantise to bipolar {-1, +1} via the sign function.

    Zeros (exact ties, ``-0.0`` included) map to ``tie_value`` so the
    output never contains 0, keeping Hamming/cosine equivalence exact.
    One comparison decides each sign — ``>= 0`` for ``tie_value=1``, the
    bit convention of :func:`~repro.runtime.pack_sign_words`, and
    ``> 0`` for ``tie_value=-1`` — so NaN maps to -1.
    """
    if tie_value not in (-1, 1):
        raise ValueError(f"tie_value must be -1 or +1, got {tie_value}")
    arr = np.asarray(vector, dtype=np.float64)
    out = (arr >= 0 if tie_value == 1 else arr > 0).astype(np.int8)
    out *= 2
    out -= 1
    return out


def binary_to_bipolar(vector: ArrayLike) -> BipolarArray:
    """Map {0, 1} -> {-1, +1} (0 becomes -1)."""
    arr = np.asarray(vector)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("binary_to_bipolar requires values in {0, 1}")
    return (2 * arr.astype(np.int8) - 1).astype(np.int8)


def bipolar_to_binary(vector: ArrayLike) -> BinaryArray:
    """Map {-1, +1} -> {0, 1} (-1 becomes 0)."""
    arr = np.asarray(vector)
    if not np.isin(arr, (-1, 1)).all():
        raise ValueError("bipolar_to_binary requires values in {-1, +1}")
    return ((arr.astype(np.int8) + 1) // 2).astype(np.uint8)


def stochastic_binarize(
    vector: ArrayLike, seed: SeedLike = None, *, scale: float | None = None
) -> BinaryArray:
    """Randomised quantiser: P(bit = 1) follows a clipped linear sigmoid.

    An unbiased-in-expectation alternative to the deterministic comparison,
    included for the quantisation ablation benchmarks.  ``scale`` defaults
    to the mean absolute element so that typical magnitudes land mid-slope.
    """
    rng = as_generator(seed)
    arr = np.asarray(vector, dtype=np.float64)
    if scale is None:
        mean_abs = float(np.mean(np.abs(arr)))
        scale = mean_abs if mean_abs > 0 else 1.0
    elif scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    prob = np.clip(0.5 + arr / (2.0 * scale), 0.0, 1.0)
    return (rng.random(arr.shape) < prob).astype(np.uint8)


def quantization_error(vector: ArrayLike, quantized: ArrayLike) -> float:
    """Relative L2 error between a hypervector and its (rescaled) quantised view.

    The binary view is first affinely rescaled (least squares) onto the
    original, so the metric reflects *directional* information loss — the
    quantity that matters for similarity search — not magnitude loss.
    """
    orig = np.asarray(vector, dtype=np.float64).ravel()
    quant = np.asarray(quantized, dtype=np.float64).ravel()
    if orig.shape != quant.shape:
        raise ValueError(
            f"shape mismatch: {orig.shape} vs {quant.shape}"
        )
    norm = np.linalg.norm(orig)
    if norm == 0:
        return 0.0
    # Least-squares scale a, offset b minimising |orig - (a*quant + b)|.
    design = np.stack([quant, np.ones_like(quant)], axis=1)
    coef, *_ = np.linalg.lstsq(design, orig, rcond=None)
    residual = orig - design @ coef
    return float(np.linalg.norm(residual) / norm)
