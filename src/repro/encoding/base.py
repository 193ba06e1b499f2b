"""Encoder interface.

An encoder maps feature rows from the original n-dimensional space into
D-dimensional hypervectors (D >> n) while preserving similarity: inputs
that are close in the original space produce hypervectors with high cosine
similarity, and unrelated inputs map to nearly orthogonal hypervectors
(the "commonsense principle" of paper Sec. 2.2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import EncodingError
from repro.ops.quantize import binarize, bipolarize
from repro.types import ArrayLike, BinaryArray, BipolarArray, FloatArray
from repro.utils.validation import check_2d


def frozen(values: ArrayLike) -> FloatArray:
    """A read-only float64 copy of ``values``.

    Registered encoders store their random arrays through this, at
    construction and in ``from_state``: the arrays never change, so a
    checkpoint directory can hold them once for every checkpoint.
    """
    arr = np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


class Encoder(ABC):
    """Abstract base class for all encoders.

    Sub-classes implement :meth:`_encode_batch`; the public methods handle
    shape coercion, validation, and the binary/bipolar quantised views used
    by the Section-3 framework.
    """

    def __init__(self, in_features: int, dim: int):
        if in_features <= 0:
            raise EncodingError(f"in_features must be > 0, got {in_features}")
        if dim <= 0:
            raise EncodingError(f"dim must be > 0, got {dim}")
        self._in_features = int(in_features)
        self._dim = int(dim)

    @property
    def in_features(self) -> int:
        """Number of raw input features ``n``."""
        return self._in_features

    @property
    def dim(self) -> int:
        """Hypervector dimensionality ``D``."""
        return self._dim

    @abstractmethod
    def _encode_batch(self, X: FloatArray) -> FloatArray:
        """Encode a validated ``(n_samples, in_features)`` batch."""

    def encode(self, x: ArrayLike) -> FloatArray:
        """Encode a single feature row into a ``(D,)`` hypervector."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim != 1:
            raise EncodingError(
                f"encode expects a single 1-D row; use encode_batch for "
                f"shape {arr.shape}"
            )
        return self.encode_batch(arr[np.newaxis, :])[0]

    def encode_batch(self, X: ArrayLike) -> FloatArray:
        """Encode a batch of feature rows into ``(n_samples, D)``.

        Returns a new writable float64 array that the caller owns: it
        shares no memory with an earlier call's output or with the
        encoder's own arrays, so an estimator normalises it in place.
        """
        arr = check_2d("X", X)
        if arr.shape[1] != self._in_features:
            raise EncodingError(
                f"expected {self._in_features} features, got {arr.shape[1]}"
            )
        out = self._encode_batch(arr)
        if out.shape != (arr.shape[0], self._dim):  # pragma: no cover - guard
            raise EncodingError(
                f"encoder produced shape {out.shape}, expected "
                f"{(arr.shape[0], self._dim)}"
            )
        return out

    def encode_binary(self, X: ArrayLike) -> BinaryArray:
        """Encode then quantise to the binary {0,1} view (``S^b`` in Sec. 3)."""
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim == 1:
            return binarize(self.encode(arr))
        return binarize(self.encode_batch(arr))

    def encode_bipolar(self, X: ArrayLike) -> BipolarArray:
        """Encode then quantise to the bipolar {-1,+1} view."""
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim == 1:
            return bipolarize(self.encode(arr))
        return bipolarize(self.encode_batch(arr))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(in_features={self._in_features}, "
            f"dim={self._dim})"
        )
