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


def normalize_rows(S: FloatArray, eps: float = 1e-12) -> FloatArray:
    """L2-normalise each row of ``S``; rows with norm < ``eps`` divide by ``eps``.

    The floor keeps all-zero encodings at zero instead of producing NaNs.
    """
    norms = np.linalg.norm(S, axis=1, keepdims=True)
    return S / np.maximum(norms, eps)


def softmax(scores: FloatArray) -> FloatArray:
    """Row-wise softmax, numerically stabilised by a per-row max shift.

    The shift makes every exponent non-positive, so the largest term is
    exactly ``exp(0) = 1`` and overflow is impossible for any finite
    input; the result is mathematically identical to the unshifted form.
    """
    shifted = scores - np.maximum.reduce(scores, axis=1, keepdims=True)
    exp = np.exp(shifted)
    return np.divide(exp, np.add.reduce(exp, axis=1, keepdims=True), out=exp)
