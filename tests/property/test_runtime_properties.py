"""Property tests for the execution-runtime kernel layer (repro.runtime).

The backend-dispatch contract of the ISSUE-4 refactor:

* packed XOR + popcount similarities are **bit-exact** replacements for
  the dense ±1 sign matmul (the products are small integers);
* the fully-binary packed dots agree with the dense binarised matmul to
  float rounding (the only kernel allowed to differ);
* the segment-sum that replaced ``np.add.at`` in the cluster update is
  bit-identical to it on a zero target;
* :class:`PackedWordsCache` incremental re-packing is indistinguishable
  from packing from scratch, and its counters account for every row;
* :class:`Query` yields identical derivations whether operands are
  precomputed (serving), derived lazily (training) or sliced from a
  larger query, and derives its sign pattern once for ``signs`` and
  ``binarized`` together.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.quantize import bipolarize
from repro.runtime import PackedWordsCache, Query, pack_sign_words
from repro.runtime.kernels import (
    hamming_similarities,
    packed_scaled_dots,
    segment_sum,
    sign_similarities,
)
from repro.runtime.quantization import DualCopy, binarize_preserving_scale


class TestPackedKernelExactness:
    @given(
        seed=st.integers(min_value=0, max_value=100),
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=9),
        dim=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_hamming_similarities_bit_exact_vs_dense(self, seed, n, k, dim):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, dim))
        B = rng.normal(size=(k, dim))
        signs_b = np.where(B >= 0, 1.0, -1.0)
        dense = sign_similarities(
            np.where(A >= 0, 1.0, -1.0), signs_b.T, dim
        )
        packed = hamming_similarities(
            pack_sign_words(A), pack_sign_words(B), dim
        )
        np.testing.assert_array_equal(packed, dense)

    @given(
        seed=st.integers(min_value=0, max_value=100),
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=9),
        dim=st.integers(min_value=2, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_packed_scaled_dots_match_dense_binarised(self, seed, n, k, dim):
        """BINARY_BOTH: same value to rounding, not bit-equal by contract."""
        rng = np.random.default_rng(seed)
        Q = rng.normal(size=(n, dim))
        M = rng.normal(size=(k, dim))
        dense = binarize_preserving_scale(Q) @ binarize_preserving_scale(M).T
        packed = packed_scaled_dots(
            pack_sign_words(Q),
            pack_sign_words(M),
            np.mean(np.abs(Q), axis=1),
            np.mean(np.abs(M), axis=1),
            dim,
        )
        # atol covers true-zero products: the packed path yields exact 0
        # while the dense accumulation leaves ~1e-15 rounding residue.
        np.testing.assert_allclose(packed, dense, rtol=1e-12, atol=1e-12)


class TestSegmentSum:
    @given(
        seed=st.integers(min_value=0, max_value=100),
        n=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_np_add_at_bit_exactly(self, seed, n, k, dim):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, dim))
        indices = rng.integers(0, k, size=n)
        expected = np.zeros((k, dim))
        np.add.at(expected, indices, rows)
        np.testing.assert_array_equal(
            segment_sum(indices, rows, k), expected
        )

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_single_column_fallback(self, seed):
        """D = 1 switches numpy reduce to pairwise; the fallback covers it."""
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(50, 1))
        indices = rng.integers(0, 3, size=50)
        expected = np.zeros((3, 1))
        np.add.at(expected, indices, rows)
        np.testing.assert_array_equal(
            segment_sum(indices, rows, 3), expected
        )


class TestPackedWordsCache:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        k=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=2, max_value=150),
        touched=st.lists(
            st.integers(min_value=0, max_value=7), max_size=5
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_incremental_equals_full_repack(self, seed, k, dim, touched):
        rng = np.random.default_rng(seed)
        dual = DualCopy(rng.normal(size=(k, dim)))
        cache = PackedWordsCache(dual)
        cache.words()  # initial full pack
        for row in touched:
            dual.update(row % k, rng.normal(size=dim))
        dual.rebinarize()
        got = cache.words()
        np.testing.assert_array_equal(got, pack_sign_words(dual.signs))
        # every row is accounted for on every words() call
        assert cache.rows_repacked + cache.rows_reused == 2 * k

    def test_sign_preserving_update_repacks_nothing(self):
        rng = np.random.default_rng(3)
        dual = DualCopy(rng.normal(size=(4, 64)))
        cache = PackedWordsCache(dual)
        cache.words()
        dual.update_all(-0.5 * dual.integer)  # decay: signs survive
        dual.rebinarize()
        cache.words()
        assert cache.rows_repacked == 4  # only the initial pack
        assert cache.rows_reused == 4


class TestQueryConsistency:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=20),
        dim=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_precomputed_matches_lazy(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, dim))
        lazy = Query(S)
        served = Query(
            S,
            signs=lazy.signs.copy(),
            words=lazy.words.copy(),
            scales=lazy.scales.copy(),
            binarized=lazy.binarized.copy(),
        )
        np.testing.assert_array_equal(served.signs, lazy.signs)
        np.testing.assert_array_equal(served.words, lazy.words)
        np.testing.assert_array_equal(served.scales, lazy.scales)
        np.testing.assert_array_equal(served.binarized, lazy.binarized)
        # lazy derivations are self-consistent with each other
        np.testing.assert_array_equal(
            lazy.binarized, lazy.signs * lazy.scales[:, np.newaxis]
        )

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=20),
        dim=st.integers(min_value=1, max_value=100),
        zero_frac=st.sampled_from([0.0, 0.2, 1.0]),
        zero_rows=st.integers(min_value=0, max_value=3),
        binarized_first=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_binarized_derives_from_cached_signs_and_scales(
        self, seed, n, dim, zero_frac, zero_rows, binarized_first
    ):
        """``binarized`` is bit-equal to ``binarize_preserving_scale(S)``
        (exact-zero entries and all-zero rows included) and shares the
        query's one sign derivation."""
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, dim))
        S[rng.random(size=S.shape) < zero_frac] = 0.0
        S[rng.permutation(n)[:zero_rows]] = 0.0
        query = Query(S)
        with mock.patch(
            "repro.runtime.query.bipolarize", wraps=bipolarize
        ) as spy:
            if binarized_first:
                binarized, signs = query.binarized, query.signs
            else:
                signs, binarized = query.signs, query.binarized
        assert spy.call_count == 1
        expected = binarize_preserving_scale(S)
        np.testing.assert_array_equal(
            binarized.view(np.uint64), expected.view(np.uint64)
        )
        np.testing.assert_array_equal(signs, bipolarize(S))

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=20),
        dim=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_slice_carries_row_slices_of_derivations(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, dim))
        whole = Query(S)
        _ = whole.binarized, whole.words  # derive every array before slicing
        start = int(rng.integers(0, n))
        run = np.arange(start, n)
        for idx in (rng.permutation(n)[: max(1, n // 2)], run):
            sliced = whole.slice(idx)
            fresh = Query(S[idx])
            np.testing.assert_array_equal(sliced.S, S[idx])
            np.testing.assert_array_equal(sliced.signs, fresh.signs)
            np.testing.assert_array_equal(sliced.words, fresh.words)
            np.testing.assert_array_equal(sliced.scales, fresh.scales)
            np.testing.assert_array_equal(sliced.binarized, fresh.binarized)
        # a contiguous ascending run is taken as views, not copies
        sliced = whole.slice(run)
        for name in ("S", "signs", "words", "scales", "binarized"):
            assert np.shares_memory(
                getattr(sliced, name), getattr(whole, name)
            ), name


class TestCacheBlockedPopcount:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=12),
        dim=st.integers(min_value=1, max_value=300),
        block_kib=st.sampled_from([1, 2, 16, 4096]),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_size_never_changes_results(
        self, seed, n, k, dim, block_kib
    ):
        """Any block budget yields the exact naive popcount counts."""
        from repro.runtime import packing

        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, dim))
        B = rng.normal(size=(k, dim))
        signs_a = np.where(A >= 0, 1, -1)
        signs_b = np.where(B >= 0, 1, -1)
        naive = (dim - signs_a @ signs_b.T) // 2  # exact Hamming counts
        packing.set_popcount_block_kib(block_kib)
        try:
            got = packing._pairwise_popcount_xor(
                pack_sign_words(A), pack_sign_words(B)
            )
        finally:
            packing.set_popcount_block_kib(None)
        np.testing.assert_array_equal(got, naive)

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=30),
        dim=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=20, deadline=None)
    def test_lut_fallback_matches_bitwise_count(self, seed, n, dim):
        """The numpy<2 byte-table path agrees with np.bitwise_count."""
        from repro.runtime import packing

        rng = np.random.default_rng(seed)
        pa = pack_sign_words(rng.normal(size=(n, dim)))
        pb = pack_sign_words(rng.normal(size=(5, dim)))
        fast = packing._pairwise_popcount_xor(pa, pb)
        had = packing._HAS_BITWISE_COUNT
        packing._HAS_BITWISE_COUNT = False
        try:
            table = packing._pairwise_popcount_xor(pa, pb)
        finally:
            packing._HAS_BITWISE_COUNT = had
        np.testing.assert_array_equal(table, fast)


class TestFusedEncodePack:
    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=30),
        features=st.integers(min_value=1, max_value=8),
        dim=st.integers(min_value=1, max_value=300),
        block_cols=st.sampled_from([64, 128, 1024]),
    )
    @settings(max_examples=30, deadline=None)
    def test_words_bit_identical_to_unfused_pipeline(
        self, seed, n, features, dim, block_cols
    ):
        """Fused encode→pack emits the same sign words as encoding then
        packing, and scales matching mean(|S|)/norm to float rounding —
        under every pinned column-block size."""
        from repro.runtime import set_fused_block_cols

        set_fused_block_cols(block_cols)
        try:
            self._check_against_unfused(seed, n, features, dim)
        finally:
            set_fused_block_cols(None)

    @pytest.mark.parametrize(
        "n, width",
        [(1, 4096), (8, 4096), (9, 3584), (31, 1024), (32, 1024), (40, 1024)],
    )
    def test_automatic_width_at_paper_dim(self, n, width):
        """At D=4096 the automatic width is one block up to 8 rows,
        narrows with the tile height above that and is 1024 columns from
        31 rows on; every case matches the unfused pipeline."""
        from repro.runtime import fused_block_cols

        assert fused_block_cols(4096, n) == width
        self._check_against_unfused(n, n, 6, 4096)

    @staticmethod
    def _check_against_unfused(seed, n, features, dim):
        from repro.encoding.nonlinear import NonlinearEncoder
        from repro.runtime import EncoderOperands, FusedScratch, encode_pack_tile

        rng = np.random.default_rng(seed)
        enc = NonlinearEncoder(features, dim, seed + 1)
        operands = EncoderOperands(
            np.asarray(enc.bases),
            np.asarray(enc.phases),
            float(enc.scale),
            np.sin(enc.phases),
        )
        X = rng.normal(size=(n, features))
        words, scales = encode_pack_tile(X, operands, FusedScratch(n, dim))
        S = enc.encode_batch(X)
        np.testing.assert_array_equal(words, pack_sign_words(S))
        norms = np.maximum(np.linalg.norm(S, axis=1), 1e-12)
        np.testing.assert_allclose(
            scales, np.mean(np.abs(S), axis=1) / norms, rtol=1e-12
        )
