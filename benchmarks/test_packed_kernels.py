"""Microbenchmarks for the packed runtime kernels (ISSUE-7).

Times the primitive kernels the PackedV2 backend is built from, on
serving-shaped operands (many query rows × few model rows):

* ``pack_bits`` / ``pack_sign_words`` — float signs → uint64 words;
* popcount — ``np.bitwise_count`` versus the uint8 LUT fallback;
* ``_pairwise_popcount_xor`` — cache-blocked versus one monolithic
  block (the pre-v2 behaviour, forced via a huge block budget);
* fused ``encode_pack_tile`` versus the unfused encode→norms→scales→
  pack stage chain it replaces.

Writes ``benchmarks/results/packed_kernels.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import call_seconds, save_result
from repro.encoding.nonlinear import NonlinearEncoder, encode_into
from repro.engine.kernels import (
    TileScratch,
    packed_query_words,
    query_scales,
    row_norms,
)
from repro.evaluation import render_table
from repro.runtime import (
    EncoderOperands,
    FusedScratch,
    encode_pack_tile,
    pack_sign_words,
)
from repro.runtime import packing

#: (query_rows, model_rows, dim) shapes — the serving popcount geometry.
SHAPES = ((512, 8, 4096), (512, 8, 10000))


def _time(fn) -> float:
    """Best-of-5 wall seconds for one call of ``fn``."""
    return float(call_seconds(fn, 5).min())


@pytest.fixture(scope="module")
def kernel_rows():
    rng = np.random.default_rng(11)
    rows: list[dict] = []
    for n, m, dim in SHAPES:
        A = rng.normal(size=(n, dim))
        B = rng.normal(size=(m, dim))
        pa = pack_sign_words(A)
        pb = pack_sign_words(B)

        t_pack = _time(lambda: pack_sign_words(A))

        def blocked():
            packing._pairwise_popcount_xor(pa, pb)

        t_blocked = _time(blocked)

        # One monolithic block: the pre-blocking behaviour, forced by a
        # budget larger than the whole (n, m, words) XOR temporary.
        packing.set_popcount_block_kib(1 << 22)
        try:
            t_unblocked = _time(blocked)
        finally:
            packing.set_popcount_block_kib(None)

        # LUT fallback for hosts without np.bitwise_count (numpy < 2).
        had_fast = packing._HAS_BITWISE_COUNT
        packing._HAS_BITWISE_COUNT = False
        try:
            t_lut = _time(blocked)
        finally:
            packing._HAS_BITWISE_COUNT = had_fast

        rows.append(
            {
                "n": n,
                "m": m,
                "dim": dim,
                "pack_ms": t_pack * 1e3,
                "popcount_blocked_ms": t_blocked * 1e3,
                "popcount_unblocked_ms": t_unblocked * 1e3,
                "popcount_lut_ms": t_lut * 1e3,
                "bitwise_count": bool(had_fast),
            }
        )
    return rows


@pytest.fixture(scope="module")
def fused_rows():
    rng = np.random.default_rng(12)
    features, tile = 16, 512
    rows: list[dict] = []
    for dim in (4096, 10000):
        enc = NonlinearEncoder(features, dim, rng.integers(1 << 30))
        operands = EncoderOperands(
            np.asarray(enc.bases),
            np.asarray(enc.phases),
            float(enc.scale),
            np.sin(enc.phases),
        )
        X = rng.normal(size=(tile, features))
        fused_scratch = FusedScratch(tile, dim)
        plain_scratch = TileScratch(tile, dim)

        def unfused():
            S = encode_into(
                X, operands.bases, operands.phases, operands.scale,
                plain_scratch.main, plain_scratch.aux,
            )
            norms = row_norms(S)
            query_scales(S, norms, plain_scratch)
            packed_query_words(S, plain_scratch)

        t_unfused = _time(unfused)
        t_fused = _time(lambda: encode_pack_tile(X, operands, fused_scratch))
        rows.append(
            {
                "dim": dim,
                "tile_rows": tile,
                "unfused_ms": t_unfused * 1e3,
                "fused_ms": t_fused * 1e3,
                "fused_speedup": t_unfused / t_fused,
            }
        )
    return rows


def test_kernel_microbench(kernel_rows, fused_rows):
    table = render_table(
        kernel_rows, precision=2, title="packed kernel microbenchmarks"
    )
    fused_table = render_table(
        fused_rows, precision=2, title="fused encode-pack vs stage chain"
    )
    text = table + "\n\n" + fused_table
    save_result("packed_kernels", text)
    print("\n" + text)

    # Shape assertions, not absolute-speed ones (CI machines vary):
    for r in fused_rows:
        assert r["fused_speedup"] > 1.0, (
            f"fused encode-pack slower than the stage chain at "
            f"D={r['dim']}: {r['fused_speedup']:.2f}x"
        )


def test_fused_matches_stage_chain_bitwise():
    """The fused pipeline's words/scales equal the unfused derivations."""
    rng = np.random.default_rng(13)
    for dim in (256, 4096):
        enc = NonlinearEncoder(16, dim, 99)
        operands = EncoderOperands(
            np.asarray(enc.bases),
            np.asarray(enc.phases),
            float(enc.scale),
            np.sin(enc.phases),
        )
        X = rng.normal(size=(100, 16))
        words, scales = encode_pack_tile(X, operands, FusedScratch(100, dim))
        S = enc.encode_batch(X)
        np.testing.assert_array_equal(words, pack_sign_words(S))
        norms = np.maximum(np.linalg.norm(S, axis=1), 1e-12)
        np.testing.assert_allclose(
            scales, np.mean(np.abs(S), axis=1) / norms, rtol=1e-12
        )
