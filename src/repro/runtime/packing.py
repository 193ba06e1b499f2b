"""Bit-packed binary hypervectors: the hardware-friendly path, in software.

The Section-3 efficiency argument is that binary hypervectors turn
D-element integer arithmetic into D-*bit* logic.  This module realises
that in software: sign patterns are packed 8-per-byte into ``uint8`` words
(widened to ``uint64`` for the kernels) and Hamming distances are computed
with XOR + popcount — the same computation an FPGA's LUTs or a CPU's
``popcnt`` performs.  The micro-benchmark ``benchmarks/test_packed_binary.py``
measures the actual speedup over the float dot product on this machine.

This module is the single home of the bit-level packing primitives; the
:class:`~repro.runtime.PackedBackend` builds its Hamming kernels on top
of it, and both the training hot loops and the inference engine
(``repro.engine``) reach the packed representation exclusively through
the runtime.

All pairwise kernels run over *cache blocks* of both operands so that
the operand tiles and the XOR temporary stay L2-resident regardless of
batch size — a ``(n, m, words)`` XOR broadcast is never materialised in
full.  The block shape is derived from the operand word width against a
byte budget (:func:`popcount_block_bytes`), overridable through
:func:`set_popcount_block_kib`; the chosen shape is exported as the
``reghd_popcount_block_rows`` / ``reghd_popcount_block_cols`` telemetry
gauges.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import DimensionalityError
from repro.telemetry import metrics as _metrics
from repro.types import ArrayLike, FloatArray

#: popcount of every byte value; fallback when numpy lacks bitwise_count.
_POPCOUNT_TABLE = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint8
)

#: ``np.bitwise_count`` (numpy >= 2.0) is the only popcount path when
#: available; the byte-table lookup exists solely as a fallback.
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: default XOR-temporary budget: half a typical per-core L2 slice, so the
#: two operand tiles and the popcount scratch fit alongside it.
_DEFAULT_POPCOUNT_BLOCK_KIB = 512

_popcount_block_kib: int | None = None


def set_popcount_block_kib(kib: int | None) -> None:
    """Pin the pairwise-kernel block budget (KiB); ``None`` restores the
    default."""
    if kib is not None and int(kib) < 1:
        raise ValueError(f"block budget must be >= 1 KiB, got {kib}")
    global _popcount_block_kib
    _popcount_block_kib = None if kib is None else int(kib)


def popcount_block_bytes() -> int:
    """Resolved XOR-temporary budget: explicit pin, else the default."""
    if _popcount_block_kib is not None:
        return _popcount_block_kib << 10
    return _DEFAULT_POPCOUNT_BLOCK_KIB << 10


def _block_shape(n: int, m: int, words: int, itemsize: int) -> tuple[int, int]:
    """Cache-block shape ``(rows, cols)`` for an ``(n, m, words)`` XOR.

    Derived from the operand word width: the widest near-square block
    whose temporary fits the byte budget, so both operand tiles and the
    XOR scratch stay resident while each block is reduced.
    """
    budget = max(1, popcount_block_bytes() // max(1, words * itemsize))
    cols = min(m, max(1, int(math.sqrt(budget))))
    rows = min(n, max(1, budget // cols))
    return rows, cols


def _popcount_sum(words: np.ndarray) -> np.ndarray:
    """Sum of per-element popcounts over the last axis.

    ``words`` may be any unsigned integer dtype; the table fallback views
    the (C-contiguous) input as bytes, which leaves the sum unchanged.
    """
    if _HAS_BITWISE_COUNT:
        return np.add.reduce(np.bitwise_count(words), axis=-1, dtype=np.int64)
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.int64)


def _check_binary(arr: np.ndarray) -> None:
    """Reject non-{0,1} content with a dtype-aware check.

    Boolean and integer inputs are validated by a pair of allocation-free
    min/max reductions (the hot path: quantiser outputs are uint8/bool);
    float inputs keep the exact elementwise check so fractional values
    cannot silently truncate to 0.
    """
    if arr.size == 0:
        return
    kind = arr.dtype.kind
    if kind == "b":
        return
    if kind in "ui":
        if arr.min() < 0 or arr.max() > 1:
            raise ValueError("pack_bits requires a binary {0,1} array")
        return
    if kind == "f":
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError("pack_bits requires a binary {0,1} array")
        return
    raise ValueError(
        f"pack_bits requires a boolean/integer/float {{0,1}} array, "
        f"got dtype {arr.dtype}"
    )


def pack_bits(binary: ArrayLike) -> tuple[np.ndarray, int]:
    """Pack {0,1} rows into uint8 words (8 bits per byte).

    Returns ``(packed, dim)`` where ``packed`` has shape
    ``(n, ceil(dim / 8))`` and ``dim`` is the original bit length (needed
    to undo the zero padding on unpack).
    """
    arr = np.asarray(binary)
    _check_binary(arr)
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise DimensionalityError(
            f"pack_bits expects 1-D or 2-D input, got shape {arr.shape}"
        )
    dim = arr.shape[1]
    packed = np.packbits(arr.astype(np.uint8), axis=1)
    return (packed[0] if single else packed), dim


def unpack_bits(packed: ArrayLike, dim: int) -> np.ndarray:
    """Invert :func:`pack_bits`."""
    arr = np.asarray(packed, dtype=np.uint8)
    single = arr.ndim == 1
    if single:
        arr = arr[np.newaxis, :]
    if dim <= 0 or dim > arr.shape[1] * 8:
        raise DimensionalityError(
            f"dim {dim} inconsistent with {arr.shape[1]} packed bytes"
        )
    bits = np.unpackbits(arr, axis=1)[:, :dim]
    return bits[0] if single else bits


def _as_words(packed: np.ndarray) -> np.ndarray:
    """Reinterpret packed uint8 rows as uint64 words (zero-padded)."""
    n, n_bytes = packed.shape
    pad = (-n_bytes) % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((n, pad), dtype=np.uint8)], axis=1
        )
    return np.ascontiguousarray(packed).view(np.uint64)


def pack_sign_words(values: ArrayLike, *, out_bits: np.ndarray | None = None) -> np.ndarray:
    """Pack the sign pattern of float rows into uint64 words.

    The bit convention matches :func:`repro.ops.quantize.bipolarize`: bit
    ``1`` where the value is ``>= 0`` (exact ties map to +1), bit ``0``
    where negative.  ``out_bits`` may supply a preallocated boolean
    ``(n, dim)`` scratch buffer so hot loops avoid the comparison
    temporary.

    Returns a ``(n, ceil(dim / 64))`` uint64 array whose padding bits are
    zero (they cancel in XOR between two packed operands).
    """
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise DimensionalityError(
            f"pack_sign_words expects 2-D input, got shape {arr.shape}"
        )
    if out_bits is not None:
        bits = np.greater_equal(arr, 0, out=out_bits[: arr.shape[0]])
    else:
        bits = arr >= 0
    return _as_words(np.packbits(bits, axis=1))


def _pairwise_popcount_xor(
    a_words: np.ndarray, b_words: np.ndarray
) -> np.ndarray:
    """``out[i, j] = popcount(a_words[i] XOR b_words[j])``, cache-blocked.

    Both operands are cut into ``(rows, cols)`` blocks sized by
    :func:`_block_shape` so the XOR temporary and the per-element
    popcounts are reduced while still L2-resident; the scratch buffers
    are allocated once per call and reused across blocks.  When the
    whole product's XOR temporary fits the budget — one product of the
    operand shapes, checked before any block shape is derived, true for
    a point query against the cluster or model words — it is XOR-ed and
    reduced directly, without block scratch.  On numpy with ``np.bitwise_count`` the popcount is a single
    vectorised ufunc into a uint8 scratch; the byte-table lookup runs
    only as a fallback.
    """
    n, words = a_words.shape
    m = b_words.shape[0]
    if n == 0 or m == 0:
        return np.empty((n, m), dtype=np.int64)
    one_block = n * m * words * a_words.itemsize <= popcount_block_bytes()
    if one_block:
        rows, cols = n, m
    else:
        rows, cols = _block_shape(n, m, words, a_words.itemsize)
    registry = _metrics.active()
    if registry is not None:
        registry.gauge("reghd_popcount_block_rows").set(rows)
        registry.gauge("reghd_popcount_block_cols").set(cols)
    if one_block:
        return _popcount_sum(
            np.bitwise_xor(a_words[:, np.newaxis, :], b_words[np.newaxis])
        )
    out = np.empty((n, m), dtype=np.int64)
    xor = np.empty((rows, cols, words), dtype=a_words.dtype)
    counts = np.empty((rows, cols, words), dtype=np.uint8)
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        a_blk = a_words[i0:i1, np.newaxis, :]
        for j0 in range(0, m, cols):
            j1 = min(j0 + cols, m)
            x = xor[: i1 - i0, : j1 - j0]
            np.bitwise_xor(a_blk, b_words[np.newaxis, j0:j1, :], out=x)
            if _HAS_BITWISE_COUNT:
                c = counts[: i1 - i0, : j1 - j0]
                np.bitwise_count(x, out=c)
                c.sum(axis=-1, dtype=np.int64, out=out[i0:i1, j0:j1])
            else:
                out[i0:i1, j0:j1] = _popcount_sum(x)
    return out


def packed_hamming_distance(a: ArrayLike, b: ArrayLike) -> FloatArray | float:
    """Hamming distance between packed rows: XOR + popcount.

    Accepts single packed vectors or batches; returns the same shapes as
    :func:`repro.ops.similarity.hamming_distance`.  Padding bits cancel in
    the XOR (both operands pad with zeros), so no ``dim`` is needed.
    """
    a_arr = np.asarray(a, dtype=np.uint8)
    b_arr = np.asarray(b, dtype=np.uint8)
    a_single = a_arr.ndim == 1
    b_single = b_arr.ndim == 1
    if a_single:
        a_arr = a_arr[np.newaxis, :]
    if b_single:
        b_arr = b_arr[np.newaxis, :]
    if a_arr.shape[1] != b_arr.shape[1]:
        raise DimensionalityError(
            f"packed widths differ: {a_arr.shape[1]} vs {b_arr.shape[1]}"
        )
    # Widen the packed bytes to uint64 words so XOR + popcount touch 8x
    # fewer elements, then reduce over bounded column tiles.
    out = _pairwise_popcount_xor(_as_words(a_arr), _as_words(b_arr)).astype(
        np.float64
    )
    if a_single and b_single:
        return float(out[0, 0])
    if a_single:
        return out[0]
    if b_single:
        return out[:, 0]
    return out


def packed_sign_products(
    a_words: np.ndarray, b_words: np.ndarray, dim: int
) -> FloatArray:
    """Pairwise bipolar dot products from packed sign words.

    For ±1 sign patterns packed with :func:`pack_sign_words`,
    ``signs_a @ signs_b.T == dim - 2 * hamming`` exactly, so the float
    matmul of two sign matrices collapses to XOR + popcount on packed
    words.  Returns a float64 ``(n, m)`` matrix of exact integers.
    """
    if dim <= 0:
        raise DimensionalityError(f"dim must be > 0, got {dim}")
    if a_words.shape[1] != b_words.shape[1]:
        raise DimensionalityError(
            f"packed widths differ: {a_words.shape[1]} vs {b_words.shape[1]}"
        )
    # -2h converts to float64 exactly, and adding dim is exact too.
    products = np.multiply(_pairwise_popcount_xor(a_words, b_words), -2.0)
    return np.add(products, dim, out=products)


def packed_hamming_similarity(
    a: ArrayLike, b: ArrayLike, dim: int
) -> FloatArray | float:
    """Normalised Hamming similarity on packed operands, in [-1, 1].

    ``dim`` is the original (unpacked) bit length used for normalisation.
    """
    if dim <= 0:
        raise DimensionalityError(f"dim must be > 0, got {dim}")
    return 1.0 - 2.0 * packed_hamming_distance(a, b) / float(dim)
