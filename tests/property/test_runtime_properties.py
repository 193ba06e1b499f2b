"""Property tests for the execution-runtime kernel layer (repro.runtime).

The backend-dispatch contract of the ISSUE-4 refactor:

* packed XOR + popcount similarities are **bit-exact** replacements for
  the dense ±1 sign matmul (the products are small integers);
* the fully-binary packed dots agree with the dense binarised matmul to
  float rounding (the only kernel allowed to differ);
* the segment-sum that replaced ``np.add.at`` in the cluster update is
  bit-identical to it on a zero target;
* the live operands' incremental re-packing of moved sign rows is
  indistinguishable from packing from scratch;
* :class:`Query` yields identical derivations whether operands are
  precomputed (serving), derived lazily (training) or sliced from a
  larger query; it caches no float matrix beside ``S``, and a slice
  over a contiguous run of rows is a view.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ops.quantize import bipolarize
from repro.runtime import (
    ClusterOperand,
    ModelOperand,
    Query,
    pack_sign_words,
    packed_sign_products,
)
from repro.runtime.kernels import (
    binary_dots,
    product_similarities,
    segment_sum,
    sign_rows,
    sign_similarities,
)
from repro.runtime.quantization import (
    ClusterQuant,
    DualCopy,
    PredictQuant,
    binarize_preserving_scale,
)


def _live_operands(dual):
    """Both live operand kinds over one dual copy, as packed kernels
    read them."""
    return (
        ClusterOperand(dual, ClusterQuant.FRAMEWORK),
        ModelOperand(dual, PredictQuant.BINARY_BOTH),
    )


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
        packed = product_similarities(
            packed_sign_products(pack_sign_words(A), pack_sign_words(B), dim),
            dim,
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
        packed = binary_dots(
            packed_sign_products(pack_sign_words(Q), pack_sign_words(M), dim),
            np.mean(np.abs(Q), axis=1),
            np.mean(np.abs(M), axis=1),
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


class TestLiveOperandWords:
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
        """Live operands re-derive only moved rows from their last packed
        snapshot, and the result equals packing from scratch."""
        rng = np.random.default_rng(seed)
        dual = DualCopy(rng.normal(size=(k, dim)))
        operands = _live_operands(dual)
        for op in operands:
            op.words  # the initial full pack
        for row in touched:
            dual.update(row % k, rng.normal(size=dim))
        dual.rebinarize()
        for op in operands:
            np.testing.assert_array_equal(
                op.words, pack_sign_words(dual.signs)
            )

    def test_sign_preserving_update_repacks_nothing(self):
        """A decay that keeps every sign returns the same words array."""
        rng = np.random.default_rng(3)
        dual = DualCopy(rng.normal(size=(4, 64)))
        operands = _live_operands(dual)
        before = [op.words for op in operands]
        dual.update_all(-0.5 * dual.integer)  # decay: signs survive
        dual.rebinarize()
        for op, words in zip(operands, before):
            assert op.words is words


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
        signs = sign_rows(S, np.empty_like(S))
        served = Query(
            S,
            signs=signs.copy(),
            words=lazy.words.copy(),
            scales=lazy.scales.copy(),
            binarized=lazy.binarized_rows().copy(),
        )
        np.testing.assert_array_equal(served.signs, bipolarize(S))
        np.testing.assert_array_equal(served.words, lazy.words)
        np.testing.assert_array_equal(served.scales, lazy.scales)
        np.testing.assert_array_equal(
            served.binarized_rows(), lazy.binarized_rows()
        )
        # lazy derivations are self-consistent with each other, and the
        # lazy query keeps no float matrix beside S
        np.testing.assert_array_equal(
            lazy.binarized_rows(), signs * lazy.scales[:, np.newaxis]
        )
        assert lazy.signs is None and lazy.binarized is None

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=20),
        dim=st.integers(min_value=1, max_value=100),
        zero_frac=st.sampled_from([0.0, 0.2, 1.0]),
        zero_rows=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_binarized_rows_match_reference(
        self, seed, n, dim, zero_frac, zero_rows
    ):
        """The transient binarised rows, and the ones a mini-batch
        builds in its sign buffer, are bit-equal to
        ``binarize_preserving_scale(S)`` (exact-zero entries, ``-0.0``
        and all-zero rows included)."""
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, dim))
        S[rng.random(size=S.shape) < zero_frac] = 0.0
        S[rng.random(size=S.shape) < zero_frac / 2] = -0.0
        S[rng.permutation(n)[:zero_rows]] = 0.0
        expected = binarize_preserving_scale(S).view(np.uint64)
        query = Query(S)
        np.testing.assert_array_equal(
            query.binarized_rows().view(np.uint64), expected
        )
        assert query.binarized is None
        batch = query.slice(np.arange(n), signs=np.empty((n + 1, dim)))
        np.testing.assert_array_equal(batch.signs, bipolarize(S))
        batch.binarize_signs()
        assert batch.signs is None
        np.testing.assert_array_equal(
            batch.binarized.view(np.uint64), expected
        )

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=20),
        dim=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=20, deadline=None)
    def test_slice_carries_row_slices_of_derivations(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, dim))
        whole = Query(S, signs=sign_rows(S, np.empty_like(S)))
        _ = whole.words, whole.scales  # derive every array before slicing
        start = int(rng.integers(0, n))
        run = np.arange(start, n)
        lo, hi = np.sort(rng.choice(n + 1, size=2, replace=False))
        middle = np.arange(lo, hi)  # any contiguous range, a mini-batch
        everything = np.arange(n)
        picked = rng.permutation(n)[: max(1, n // 2)]
        names = ("S", "signs", "words", "scales")
        for idx in (picked, run, middle, everything):
            sliced = whole.slice(idx)
            fresh = Query(S[idx])
            np.testing.assert_array_equal(sliced.S, S[idx])
            np.testing.assert_array_equal(sliced.signs, bipolarize(S[idx]))
            np.testing.assert_array_equal(sliced.words, fresh.words)
            np.testing.assert_array_equal(sliced.scales, fresh.scales)
            np.testing.assert_array_equal(
                sliced.binarized_rows(), fresh.binarized_rows()
            )
            # a contiguous ascending run is taken as views, other rows
            # as copies
            first = idx[0]
            contiguous = np.array_equal(idx, np.arange(first, first + len(idx)))
            for name in names:
                assert np.shares_memory(
                    getattr(sliced, name), getattr(whole, name)
                ) == contiguous, name


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

    @pytest.mark.parametrize("dim", [64, 4000, 4096])
    @pytest.mark.parametrize("n", [1, 8, 9, 31])
    def test_edge_shapes_match_unfused_pipeline(self, n, dim):
        """Point queries and short tiles at a one-word D, a padded D and
        the paper's D: the words equal the unfused packing exactly, with
        zero padding bits at D=4000, and the scales match to rtol 1e-12.
        Only a single block spanning a 64-aligned D returns packbits'
        own output; every other layout copies into the scratch words."""
        words, scratch = self._check_against_unfused(n, n, 6, dim)
        single_aligned = scratch.block_cols == dim
        assert single_aligned is (dim == 64 or (dim == 4096 and n <= 8))
        assert (scratch.words is None) is single_aligned
        if not single_aligned:
            assert np.shares_memory(words, scratch.words)
        if dim % 64:
            assert not (words[:, -1] >> np.uint64(dim % 64)).any()

    @pytest.mark.parametrize("dim", [64, 4000, 4096])
    @pytest.mark.parametrize("n", [1, 8, 9, 31])
    def test_doubled_encoding_equals_the_halving_formula(self, n, dim):
        """The pipeline keeps ``2H`` and floors its norm at ``2·eps``: its
        words and scales equal, bit for bit, those of the formula that
        halved each block to ``H`` and floored at ``eps``, in the same
        column blocks.  The last row is all-zero features, whose
        encoding is zero and whose scale comes off the norm floor."""
        from repro.runtime import FusedScratch, encode_pack_tile

        operands, X = self._operands_and_rows(n, 6, dim)
        X[-1] = 0.0
        scratch = FusedScratch(n, dim)
        words, scales = encode_pack_tile(X, operands, scratch)
        ref_words, ref_scales = _halving_encode_pack(
            X, operands, scratch.block_cols
        )
        assert np.array_equal(words, ref_words)
        assert np.array_equal(scales, ref_scales)
        assert scales[-1] == 0.0

    @staticmethod
    def _operands_and_rows(n, features, dim):
        """A nonlinear encoder's fused operands and ``n`` feature rows,
        both seeded by ``n``."""
        from repro.encoding.nonlinear import NonlinearEncoder
        from repro.runtime import EncoderOperands

        enc = NonlinearEncoder(features, dim, n + 1)
        operands = EncoderOperands(
            np.asarray(enc.bases),
            np.asarray(enc.phases),
            float(enc.scale),
            np.sin(enc.phases),
        )
        X = np.random.default_rng(n).normal(size=(n, features))
        return operands, X

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
        scratch = FusedScratch(n, dim)
        words, scales = encode_pack_tile(X, operands, scratch)
        S = enc.encode_batch(X)
        np.testing.assert_array_equal(words, pack_sign_words(S))
        norms = np.maximum(np.linalg.norm(S, axis=1), 1e-12)
        np.testing.assert_allclose(
            scales, np.mean(np.abs(S), axis=1) / norms, rtol=1e-12
        )
        return words, scratch


def _halving_encode_pack(X, enc, block_cols, norm_eps=1e-12):
    """The fused encode→pack as it stood with its ``× 0.5`` pass: each
    column block of ``H = ½(sin(2p + φ) − sin φ)`` is packed and reduced
    into ``Σ|H|`` and ``‖H‖²`` in one ``(2, t, w)`` reduction, and the
    scale is ``(Σ|H|/D) / max(‖H‖, eps)``."""
    t, dim = X.shape[0], enc.bases.shape[1]
    sums = np.zeros((2, t))
    signs = np.empty((t, dim))
    for d0 in range(0, dim, block_cols):
        d1 = min(d0 + block_cols, dim)
        block = np.empty((2, t, d1 - d0))
        H = block[0]
        np.dot(X, enc.bases[:, d0:d1], out=H)
        np.multiply(H, 2.0 * enc.scale, out=H)
        np.add(H, enc.phases[d0:d1], out=H)
        np.sin(H, out=H)
        np.subtract(H, enc.sin_phases[d0:d1], out=H)
        np.multiply(H, 0.5, out=H)
        np.multiply(H, H, out=block[1])
        signs[:, d0:d1] = H
        np.abs(H, out=H)
        sums += np.add.reduce(block, axis=2)
    norms = np.maximum(np.sqrt(sums[1]), norm_eps)
    return pack_sign_words(signs), sums[0] / float(dim) / norms
