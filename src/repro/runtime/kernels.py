"""Stateless kernel math shared by every :class:`~repro.runtime.KernelBackend`.

This module is the single definition site for the arithmetic both the
training hot loops and the compiled inference engine execute: cosine /
sign / Hamming cluster similarities (paper Eq. 5 and its Sec.-3.1
quantisations), softmax confidences (Fig. 4), model dot products
(Eq. 6 / Sec. 3.2), and the scatter-style accumulation primitives behind
the model and cluster updates (Eqs. 7-8).  Backends select *which* of
these kernels to run for a given representation; none of them reimplement
the math.

The repo-consistency guard (``tests/test_repo_consistency.py``) enforces
that sign matmuls, XOR+popcount and softmax invocations appear nowhere
else under ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.ops.normalize import block_rows, softmax
from repro.types import FloatArray

#: floor applied to cluster norms so untrained (all-zero) clusters yield
#: zero similarity instead of dividing by zero.
NORM_EPS = 1e-12


# -- cluster similarities (Eq. 5 / Sec. 3.1) -------------------------------


def cosine_similarities(
    S: FloatArray, cluster_matT: FloatArray, cluster_norms: FloatArray
) -> FloatArray:
    """Full-precision cosine similarity of row-normalised queries.

    ``S`` rows are already unit-norm (the encoder normalises), so dividing
    the dot products by the cluster norms completes the cosine.
    """
    return (S @ cluster_matT) / cluster_norms


def sign_similarities(
    signs: FloatArray, cluster_signsT: FloatArray, dim: int
) -> FloatArray:
    """Hamming-equivalent similarity as a ±1 sign matmul.

    For bipolar operands, ``a . b = D - 2 * hamming(a, b)``; dividing by
    ``D`` lands in ``[-1, 1]`` like the cosine path.
    """
    return (signs @ cluster_signsT) / float(dim)


def row_tiled_sign_similarities(
    S: FloatArray, cluster_signsT: FloatArray, dim: int
) -> FloatArray:
    """:func:`sign_similarities` of the sign pattern of the float rows
    ``S``, derived one row block at a time into one block of scratch.

    Each product is a sum of ±1 terms, exact in float64, so tiling the
    matmul cannot move a bit; the query never holds an ``(n, D)`` sign
    matrix.
    """
    n, width = S.shape
    out = np.empty((n, cluster_signsT.shape[1]), dtype=np.float64)
    step = block_rows(width)
    scratch = np.empty((min(step, n), width), dtype=np.float64)
    for lo in range(0, n, step):
        signs = sign_rows(S[lo : lo + step], scratch)
        np.matmul(signs, cluster_signsT, out=out[lo : lo + len(signs)])
    return np.divide(out, float(dim), out=out)


def product_similarities(products: FloatArray, dim: int) -> FloatArray:
    """The sign similarity from ±1 sign products, into a new array.

    ``products`` are the XOR + popcount products of packed uint64 words
    (:meth:`~repro.runtime.Query.sign_products`, possibly a view of a
    pass the query keeps, so it is only read).  Bit-exact against
    :func:`sign_similarities` on the same sign patterns (the products are
    integers; the single division is identical).
    """
    return np.divide(products, float(dim))


# -- confidences (Fig. 4) --------------------------------------------------


def confidences(sims: FloatArray, softmax_temp: float) -> FloatArray:
    """Per-cluster confidence: temperature-scaled softmax of similarities."""
    return softmax(softmax_temp * sims)


# -- query-side derivations ------------------------------------------------


def sign_rows(S: FloatArray, out: FloatArray) -> FloatArray:
    """The ±1 sign pattern of the rows ``S``, written into the first
    ``len(S)`` rows of the float buffer ``out``; returns that view.

    ``+1`` where ``S >= 0`` (exact zeros, ``-0.0`` included, map to +1
    as in :func:`repro.ops.quantize.bipolarize`), ``-1`` elsewhere —
    the bit convention of :func:`~repro.runtime.pack_sign_words`.
    """
    signs = out[: len(S)]
    np.greater_equal(S, 0.0, out=signs)
    np.multiply(signs, 2.0, out=signs)
    return np.subtract(signs, 1.0, out=signs)


def row_scales(S: FloatArray) -> FloatArray:
    """Per-row binarisation scale ``mean(|S_i|)``, one row block at a
    time: each row's mean is reduced alone, so the blocks give the same
    bits as a whole-batch ``np.mean(np.abs(S), axis=1)`` without its
    ``(n, D)`` temporary."""
    n, width = S.shape
    scales = np.empty(n, dtype=np.float64)
    step = block_rows(width)
    scratch = np.empty((min(step, n), width), dtype=np.float64)
    for lo in range(0, n, step):
        blk = S[lo : lo + step]
        absolute = np.abs(blk, out=scratch[: len(blk)])
        np.mean(absolute, axis=1, out=scales[lo : lo + len(blk)])
    return scales


def scale_signs(signs: FloatArray, scales: FloatArray) -> FloatArray:
    """Binarised rows ``sign * scale`` built in the sign buffer itself;
    rows whose scale is zero binarise to zero, bit-equal to
    :func:`~repro.runtime.binarize_preserving_scale`."""
    np.multiply(signs, scales[:, np.newaxis], out=signs)
    signs[scales == 0.0] = 0.0
    return signs


# -- model dot products (Eq. 6 / Sec. 3.2) ---------------------------------


def dense_dots(queries: FloatArray, model_matT: FloatArray) -> FloatArray:
    """Dense query x model dot products; operands pre-binarised as needed."""
    return queries @ model_matT


def binary_dots(
    products: FloatArray, query_scales: FloatArray, model_scales: FloatArray
) -> FloatArray:
    """Fully-binary dot products from ±1 sign products, into a new array.

    ``(q_sign * q_scale) . (m_sign * m_scale)`` factors into the integer
    sign product times both per-row scales — the multiply the output
    stage of a binary accelerator folds in.  ``products`` is only read,
    as in :func:`product_similarities`.
    """
    dots = np.multiply(products, query_scales[:, np.newaxis])
    return np.multiply(dots, model_scales, out=dots)


def linear_dots(S: FloatArray, weights: FloatArray) -> FloatArray:
    """Dot products against a weight vector or a stack of class vectors."""
    return S @ weights.T if weights.ndim == 2 else S @ weights


# -- scatter / accumulation primitives (Eqs. 7-8) --------------------------


def segment_sum(indices: np.ndarray, rows: FloatArray, k: int) -> FloatArray:
    """Sum ``rows`` into ``k`` buckets selected by ``indices``.

    Bit-identical to ``np.add.at`` on a zero target for ``D >= 2``:
    ``np.add.at`` applies updates in index order, i.e. a sequential left
    fold per bucket; a stable argsort groups each bucket's rows
    contiguously in that same relative order, and ``np.add.reduce`` over a
    C-contiguous 2-D slice performs the same sequential fold.  This avoids
    ``np.add.at``'s unbuffered per-element dispatch (5-7x faster at
    training batch shapes).  For a single column numpy's reduce switches
    to pairwise summation, so that degenerate case falls back to
    ``np.add.at``.
    """
    out = np.zeros((k, rows.shape[1]), dtype=np.float64)
    if rows.shape[1] < 2:
        np.add.at(out, indices, rows)
        return out
    if np.all(indices[1:] >= indices[:-1]):
        # Already grouped (the cluster update sorts its rows as it
        # weights them): no second permuted copy.
        sorted_rows, sorted_idx = np.ascontiguousarray(rows), indices
    else:
        order = np.argsort(indices, kind="stable")
        sorted_rows = np.ascontiguousarray(rows[order])
        sorted_idx = indices[order]
    buckets, starts = np.unique(sorted_idx, return_index=True)
    ends = np.append(starts[1:], len(sorted_idx))
    for bucket, lo, hi in zip(buckets, starts, ends):
        np.add.reduce(sorted_rows[lo:hi], axis=0, out=out[bucket])
    return out


def scatter_add(
    target: FloatArray, indices: np.ndarray, rows: FloatArray
) -> None:
    """Unbuffered in-place scatter-add into an existing (non-zero) target.

    ``np.add.at`` semantics are load-bearing here: accumulating into a
    *non-zero* target in index order cannot be reproduced bit-exactly by
    a segment sum followed by one add (float addition is not associative),
    so the classification-style updates keep the unbuffered scatter.
    """
    np.add.at(target, indices, rows)
