"""Shared row-wise normalisation and softmax primitives.

Every RegHD model runs the same two steps between encoding and learning:
L2-normalise the encoded hypervectors (so the LMS update is stable for
any ``lr < 2`` independent of ``D``) and, for the multi-model variants,
softmax the cluster similarities into per-cluster confidences (Fig. 4).
These used to live as private clones in each model class; this module is
now the single definition both the training path
(:mod:`repro.core`) and the compiled inference engine
(:mod:`repro.engine.kernels`) consume, so the two paths stay bit-exact
by construction.
"""

from __future__ import annotations

import numpy as np

from repro.types import FloatArray


#: float64 elements in one row block of a row-wise scratch buffer
#: (256 KiB).  The row norms here, the encoder's cosine term and the
#: runtime's per-row-tile sign and scale derivations each work one block
#: of rows at a time, so their scratch does not grow with the batch.
BLOCK_ELEMENTS = 1 << 15


def block_rows(dim: int) -> int:
    """Rows of ``dim`` components in one :data:`BLOCK_ELEMENTS` block
    (at least one)."""
    return max(1, BLOCK_ELEMENTS // max(int(dim), 1))


def row_norms(S: FloatArray, eps: float = 1e-12) -> FloatArray:
    """Euclidean norm of each row of ``S``, floored at ``eps``.

    Each row block's norms are ``sqrt(add.reduce(blk * blk, axis=1))``,
    which is what ``np.linalg.norm(S, axis=1)`` computes per row, bit for
    bit, without its ``(n, D)`` square temporary.
    """
    n, dim = S.shape
    norms = np.empty(n, dtype=np.float64)
    step = block_rows(dim)
    square = np.empty((min(step, n), dim), dtype=np.float64)
    for lo in range(0, n, step):
        blk = S[lo : lo + step]
        sq = np.multiply(blk, blk, out=square[: len(blk)])
        np.add.reduce(sq, axis=1, out=norms[lo : lo + len(blk)])
    np.sqrt(norms, out=norms)
    return np.maximum(norms, eps, out=norms)


def normalize_rows(
    S: FloatArray, eps: float = 1e-12, *, out: FloatArray | None = None
) -> FloatArray:
    """L2-normalise each row of ``S``; rows with norm < ``eps`` divide by ``eps``.

    The floor keeps all-zero encodings at zero instead of producing NaNs.
    ``out=S`` normalises in place, bit-equal to the copying form: an
    estimator divides its encoder's fresh output this way, so a batch
    costs one float matrix.
    """
    norms = row_norms(S, eps)
    return np.divide(S, norms[:, np.newaxis], out=out)


def softmax(scores: FloatArray) -> FloatArray:
    """Row-wise softmax, numerically stabilised by a per-row max shift.

    The shift makes every exponent non-positive, so the largest term is
    exactly ``exp(0) = 1`` and overflow is impossible for any finite
    input; the result is mathematically identical to the unshifted form.
    """
    shifted = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    exp = np.exp(shifted)
    return np.divide(exp, np.add.reduce(exp, axis=1, keepdims=True), out=exp)
