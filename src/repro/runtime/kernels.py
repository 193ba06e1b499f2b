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

from repro.ops.normalize import softmax
from repro.runtime.packing import packed_sign_products
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


def hamming_similarities(
    query_words: np.ndarray, cluster_words: np.ndarray, dim: int
) -> FloatArray:
    """The sign matmul executed as XOR + popcount over packed uint64 words.

    Bit-exact against :func:`sign_similarities` on the same sign patterns
    (the products are integers; the single division is identical).
    """
    products = packed_sign_products(query_words, cluster_words, dim)
    return np.divide(products, float(dim), out=products)


# -- confidences (Fig. 4) --------------------------------------------------


def confidences(sims: FloatArray, softmax_temp: float) -> FloatArray:
    """Per-cluster confidence: temperature-scaled softmax of similarities."""
    return softmax(softmax_temp * sims)


# -- model dot products (Eq. 6 / Sec. 3.2) ---------------------------------


def dense_dots(queries: FloatArray, model_matT: FloatArray) -> FloatArray:
    """Dense query x model dot products; operands pre-binarised as needed."""
    return queries @ model_matT


def packed_scaled_dots(
    query_words: np.ndarray,
    model_words: np.ndarray,
    query_scales: FloatArray,
    model_scales: FloatArray,
    dim: int,
) -> FloatArray:
    """Fully-binary dot products as XOR + popcount with output-stage scales.

    ``(q_sign * q_scale) . (m_sign * m_scale)`` factors into the integer
    sign product times both per-row scales — the multiply the output
    stage of a binary accelerator folds in.
    """
    products = packed_sign_products(query_words, model_words, dim)
    np.multiply(products, query_scales[:, np.newaxis], out=products)
    return np.multiply(products, model_scales, out=products)


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
