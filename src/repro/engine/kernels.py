"""Scratch-buffer tile kernels for the compiled inference engine.

Each helper operates on one row tile of a batch and writes its large
intermediates into caller-provided scratch buffers, so a tile's peak
memory is a fixed number of ``(tile_rows, D)`` arrays no matter how many
rows the full batch has.  Numpy's ufuncs and BLAS release the GIL on
arrays of this size, which is what lets the executor fan tiles out over a
thread pool.

This module owns only the *query-side preparation* — norms,
binarisation scales, sign matrices and packed words derived into
scratch; the encoding itself is
:func:`repro.encoding.nonlinear.encode_into` writing into the same
buffers.  The similarity / softmax / dot-product arithmetic itself lives
in :mod:`repro.runtime` and is reached through the plan's
:class:`~repro.runtime.KernelBackend`, so serving and training share one
kernel layer by construction.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.fused import FusedScratch
from repro.runtime.packing import pack_sign_words
from repro.types import FloatArray


class TileScratch:
    """Preallocated buffers for one in-flight tile (one set per worker).

    ``fused=True`` builds the block-sized buffers of the fused
    encode→pack pipeline *instead of* the full ``(tile_rows, dim)`` float
    slabs — a fused tile never materialises the float encoding, so its
    scratch is a fraction of the unfused set.
    """

    def __init__(self, tile_rows: int, dim: int, *, fused: bool = False):
        self.tile_rows = int(tile_rows)
        self.dim = int(dim)
        if fused:
            self.main = self.aux = self.bits = None
            self.fused = FusedScratch(tile_rows, dim)
            return
        self.fused = None
        #: primary float buffer: raw encoding, then normalised encoding
        self.main = np.empty((tile_rows, dim), dtype=np.float64)
        #: secondary float buffer: trig temporary, |S|, then sign matrix
        self.aux = np.empty((tile_rows, dim), dtype=np.float64)
        #: boolean sign-bit buffer feeding the word packer
        self.bits = np.empty((tile_rows, dim), dtype=np.bool_)

    @property
    def nbytes(self) -> int:
        """Total scratch footprint in bytes."""
        if self.fused is not None:
            return self.fused.nbytes
        return self.main.nbytes + self.aux.nbytes + self.bits.nbytes


def row_norms(S: FloatArray, eps: float = 1e-12) -> FloatArray:
    """Euclidean row norms, floored at ``eps`` (the same floor as
    :func:`repro.ops.normalize.normalize_rows`)."""
    norms = np.linalg.norm(S, axis=1)
    np.maximum(norms, eps, out=norms)
    return norms


def query_scales(S: FloatArray, norms: FloatArray, scratch: TileScratch) -> FloatArray:
    """Per-row binarisation scale of the *normalised* queries.

    ``mean(|S / norm|) == mean(|S|) / norm``, so the scale is computed
    from the raw encoding without materialising the normalised tile.
    Rows whose scale is zero (all-zero encodings) binarise to zero,
    matching :func:`repro.core.quantization.binarize_preserving_scale`.
    """
    t = S.shape[0]
    absS = np.abs(S, out=scratch.aux[:t])
    scales = absS.mean(axis=1)
    scales /= norms
    return scales


def sign_matrix(S: FloatArray, scratch: TileScratch) -> FloatArray:
    """±1 sign pattern of a tile (ties → +1) built in ``scratch.aux``."""
    t = S.shape[0]
    bits = np.greater_equal(S, 0, out=scratch.bits[:t])
    signs = np.multiply(bits, 2.0, out=scratch.aux[:t])
    np.subtract(signs, 1.0, out=signs)
    return signs


def packed_query_words(S: FloatArray, scratch: TileScratch) -> np.ndarray:
    """Pack a tile's sign bits into uint64 words via the shared scratch."""
    return pack_sign_words(S, out_bits=scratch.bits)
