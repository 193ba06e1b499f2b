"""Fused encode→pack pipeline for binary-query inference (PackedV2).

When every heavy serving stage runs on packed sign words (quantised
cluster search *and* fully-binary model dots), the full ``(tile, D)``
float hypervector batch is dead weight: only its sign bits and two row
reductions (the Euclidean norm and the mean magnitude feeding the
binarisation scale) survive into the kernels.  This module computes
exactly those outputs from raw feature rows, one column block at a time,
so the intermediate float encoding never exists beyond a
``(tile, block)`` slab.

Two things make the fused path faster than encode-then-pack:

* **single-trig encode** — each block of projections becomes the
  doubled Eq.-(1) encoding ``2H = sin(2p + φ) − sin φ`` through
  :func:`repro.encoding.nonlinear.double_h`, the kernel the float encoder
  halves from, so wherever a block's projection rounds as the whole
  batch's does, the words hold the float encoder's sign bits by
  construction.  The pipeline keeps ``2H`` and never halves it: doubling
  is exact, so ``2H`` has the sign bits of ``H``, and ``Σ|2H|``, ``‖2H‖``
  and the norm floor ``2·eps`` are exactly twice ``Σ|H|``, ``‖H‖`` and
  ``eps``; the factors cancel in ``(Σ|2H|/D) / max(‖2H‖, 2·eps)``, which
  equals the scale of ``H`` bit for bit, the all-zero row included.
* **blocked reductions** — the squared-sum / absolute-sum accumulators
  and the sign-bit packing consume each block while it is cache-hot,
  instead of re-streaming a multi-megabyte tile once per derivation.

Like the float encoder, a block of two rows or more and at least
:data:`~repro.ops.halves.SPLIT_ELEMENTS` components computes the
elementwise ``2H`` of its row halves on the calling thread and the
process's helper thread (:mod:`repro.ops.halves`).  The projection
``np.dot``, the reductions, the sign packing and the block layout stay
in the caller, so words and scales are bit for bit those of one thread.
A 1-row point query never splits; an 8-row read at D=4096 does, once per
block.

The block width is chosen once per scratch set, from its tile height (a
multiple of 64 so each block lands on packed-word boundaries): the
widest block whose ``(tile_rows, block)`` slab fits 32 768 elements
(256 KiB of float64), never narrower than 1024 columns.  Short tiles — a
1-row point query at D=4096 — therefore encode in one block and pay the
per-block numpy dispatch once; tiles of 31 rows or more keep
1024-column blocks.  :func:`set_fused_block_cols` pins the width, and the
width in use is exported as the ``reghd_fused_block_cols`` telemetry
gauge.  The layout is part of the output contract, not only a speed
setting: the scales sum each row block by block, so the block
boundaries fix their summation order and with it their last bits.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from repro.encoding.nonlinear import double_h
from repro.ops import halves
from repro.telemetry import metrics as _metrics
from repro.types import FloatArray

__all__ = [
    "EncoderOperands",
    "FusedScratch",
    "encode_pack_tile",
    "fused_block_cols",
    "set_fused_block_cols",
]

#: element budget of one ``(rows, block)`` float64 slab: 256 KiB, so the
#: three slabs of a block stay in L2 while the reductions and the bit
#: packer consume them.
_SLAB_ELEMENTS = 32768

#: narrowest automatic block width: wide enough that the BLAS projection
#: per block amortises on tall tiles.
_MIN_BLOCK_COLS = 1024

_fused_block_cols: int | None = None


def set_fused_block_cols(cols: int | None) -> None:
    """Pin the fused-encode block width; ``None`` restores the automatic
    width.  Values round up to a multiple of 64 so blocks always align
    with packed uint64 word boundaries."""
    if cols is not None and int(cols) < 1:
        raise ValueError(f"block width must be >= 1, got {cols}")
    global _fused_block_cols
    _fused_block_cols = None if cols is None else -(-int(cols) // 64) * 64
    fused_block_cols.cache_clear()


@functools.lru_cache(maxsize=None)
def fused_block_cols(dim: int, rows: int | None = None) -> int:
    """Column block width for a fused encode of ``rows`` rows over ``dim``.

    A multiple of 64 (so per-block ``packbits`` output lands on uint64
    word boundaries), never wider than the padded ``dim``.  A pinned
    width is used as given.  Otherwise it is the widest width whose
    ``(rows, width)`` slab fits :data:`_SLAB_ELEMENTS`, but never narrower
    than 1024 columns; ``rows=None`` asks for a tall tile's width.  The
    width is derived once per ``(dim, rows)`` and pin.
    """
    padded = -(-int(dim) // 64) * 64
    cols = _fused_block_cols
    if cols is None:
        cols = _MIN_BLOCK_COLS
        if rows is not None:
            cols = max(cols, _SLAB_ELEMENTS // max(1, int(rows)) // 64 * 64)
    return max(64, min(cols, padded))


class EncoderOperands(NamedTuple):
    """Projection operands of one nonlinear encoder, stored in a plan.

    :func:`~repro.engine.compile_model` snapshots them once as read-only
    copies of the encoder's arrays, ``sin(φ)`` included; every predict
    call encodes with the same arrays, fused or not.
    """

    bases: FloatArray
    phases: FloatArray
    scale: float
    sin_phases: FloatArray


class FusedScratch:
    """Preallocated buffers for one call's fused encode→pack tiles.

    Only the buffers the block layout uses are allocated: one float slab
    whose two rows hold a column block of the encoding ``2H`` (then
    ``|2H|``) and of ``(2H)²``, one ``(2, tile_rows)`` slab of row sums
    that a single reduction per block fills from it, the sign bits, and
    the packed output words.  When one block spans a D that is a
    multiple of 64, ``np.packbits``' output viewed as ``uint64`` already
    is the words, so ``words`` is ``None``.
    """

    __slots__ = (
        "tile_rows", "dim", "block_cols", "floats", "bits", "sums", "words",
    )

    def __init__(self, tile_rows: int, dim: int):
        self.tile_rows = tile_rows = int(tile_rows)
        self.dim = dim = int(dim)
        self.block_cols = cols = fused_block_cols(dim, tile_rows)
        slab = tile_rows * cols
        #: ``2H`` (then ``|2H|``) and ``(2H)²`` of one column block
        self.floats = np.empty((2, slab), dtype=np.float64)
        #: sign bits of one column block, feeding the packer
        self.bits = np.empty(slab, dtype=np.bool_)
        #: per-row ``Σ|2H|`` and ``‖2H‖²``, accumulated over the blocks
        self.sums = np.empty((2, tile_rows), dtype=np.float64)
        #: packed output words for a full tile, unless one block's
        #: ``packbits`` output is the words already
        self.words = (
            None
            if cols == dim
            else np.empty((tile_rows, -(-dim // 64)), dtype=np.uint64)
        )

    @property
    def nbytes(self) -> int:
        """Total scratch footprint in bytes."""
        words = 0 if self.words is None else self.words.nbytes
        return self.floats.nbytes + self.bits.nbytes + self.sums.nbytes + words


def encode_pack_tile(
    X: FloatArray,
    enc: EncoderOperands,
    scratch: FusedScratch,
    *,
    norm_eps: float = 1e-12,
) -> tuple[np.ndarray, FloatArray]:
    """Raw feature rows → packed sign words + binary-query scales.

    Returns ``(words, scales)`` where ``words`` is the ``(t, ceil(D/64))``
    uint64 sign packing of the Eq.-(1) encoding ``H`` (bit 1 where the
    encoded value is ``>= 0``, padding bits zero — the
    :func:`pack_sign_words` convention) and ``scales`` is the per-row
    binarisation scale of the normalised queries,
    ``mean(|H|) / max(‖H‖, eps)``.  ``scales`` is a view into ``scratch``
    valid until its next use; so is ``words``, except when one block
    spans a D that is a multiple of 64, where it is ``np.packbits``' own
    output viewed as uint64.

    The full float encoding is never materialised: each column block of
    ``2H`` is encoded with the single-trig identity, packed, and reduced
    into the norm/scale accumulators while cache-resident.  ``2H`` has
    the sign bits of ``H``, and its scale ``(Σ|2H|/D) / max(‖2H‖,
    2·eps)`` equals that of ``H`` bit for bit (see the module notes).
    A block of two rows or more and at least
    :data:`~repro.ops.halves.SPLIT_ELEMENTS` components takes its
    elementwise ``2H`` as row halves on two cores, bit for bit as in one
    pass.
    """
    t = X.shape[0]
    dim, bc = scratch.dim, scratch.block_cols
    registry = _metrics.active()
    if registry is not None:
        registry.gauge("reghd_fused_block_cols").set(bc)
    bases, phases, scale, sin_phases = enc
    two_scale = 2.0 * scale
    words = scratch.words
    if words is not None:
        words = words[:t]
        words_u8 = words.view(np.uint8)
    sums = scratch.sums[:, :t]
    for d0 in range(0, dim, bc):
        cols = slice(d0, d0 + bc)
        w = min(bc, dim - d0)
        # The slab's two rows as contiguous (t, w) blocks — np.dot
        # requires a C-contiguous output array.
        block = scratch.floats[:, : t * w].reshape(2, t, w)
        pb = block[0]
        np.dot(X, bases[:, cols], out=pb)
        halves.run_rows(double_h, pb, two_scale, phases[cols], sin_phases[cols])
        # (2H)² into the slab's second row, before |2H| overwrites 2H.
        np.multiply(pb, pb, out=block[1])
        # Sign bits → packed bytes; block starts are multiples of 64, so
        # per-block packbits output lands on whole-byte offsets.
        bits = np.greater_equal(pb, 0, out=scratch.bits[: t * w].reshape(t, w))
        packed = np.packbits(bits, axis=1)
        if words is None:
            words = packed.view(np.uint64)
        else:
            words_u8[:, d0 // 8 : d0 // 8 + packed.shape[1]] = packed
        # Σ|2H| and ‖2H‖² in one reduction over both rows while the block
        # is hot.  The first block reduces straight into the accumulators
        # (both sums are >= +0.0, so this equals adding them to zeros).
        np.abs(pb, out=pb)
        if d0:
            sums += np.add.reduce(block, axis=2)
        else:
            np.add.reduce(block, axis=2, out=sums)
    if scratch.words is not None:
        # Zero the padding bytes so padding bits cancel in XOR, exactly
        # as pack_sign_words guarantees.
        used_bytes = -(-dim // 8)
        if used_bytes < words_u8.shape[1]:
            words_u8[:, used_bytes:] = 0
    norms = np.sqrt(sums[1], out=sums[1])
    np.maximum(norms, 2.0 * norm_eps, out=norms)
    scales = np.divide(sums[0], float(dim), out=sums[0])
    np.divide(scales, norms, out=scales)
    return words, scales
