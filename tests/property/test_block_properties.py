"""Property tests: the row-block forms of the encode/normalise/query
arithmetic give the same bits as the whole-batch forms they replace.

An encoded batch is one float matrix because the encoder works in place
in its output, the row norms, the binarisation scales and the sign
similarities each work one row block at a time, and the normalisation
divides in place.
Every step is per-element or per-row (and sign products are sums of ±1,
exact in float64), so none of them may move a bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding.nonlinear import NonlinearEncoder, encode_into
from repro.ops.normalize import normalize_rows, row_norms
from repro.ops.quantize import bipolarize
from repro.runtime.kernels import (
    row_scales,
    row_tiled_sign_similarities,
    sign_similarities,
)

shapes = dict(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=1, max_value=70),
    dim=st.integers(min_value=1, max_value=5000),
)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _rows(seed, n, dim, zero_rows=0):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
    S[rng.permutation(n)[:zero_rows]] = 0.0
    return S


class TestNormalizeInPlace:
    @given(**shapes, zero_rows=st.integers(min_value=0, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_in_place_equals_copying_form(self, seed, n, dim, zero_rows):
        S = _rows(seed, n, dim, zero_rows)
        copied = normalize_rows(S)
        in_place = S.copy()
        out = normalize_rows(in_place, out=in_place)
        assert out is in_place
        np.testing.assert_array_equal(_bits(out), _bits(copied))
        reference = S / np.maximum(
            np.linalg.norm(S, axis=1, keepdims=True), 1e-12
        )
        np.testing.assert_array_equal(_bits(copied), _bits(reference))

    @given(**shapes)
    @settings(max_examples=40, deadline=None)
    def test_row_norms_equal_linalg_norm(self, seed, n, dim):
        S = _rows(seed, n, dim)
        expected = np.maximum(np.linalg.norm(S, axis=1), 1e-12)
        np.testing.assert_array_equal(_bits(row_norms(S)), _bits(expected))


class TestEncodeInPlace:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=40),
        dim=st.integers(min_value=1, max_value=3000),
        features=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_encode_batch_equals_encode_into(self, seed, n, dim, features):
        """The encoder's fresh-output encode equals the engine tile's
        :func:`encode_into` into scratch, bit for bit."""
        encoder = NonlinearEncoder(features, dim, seed)
        X = np.random.default_rng(seed).normal(size=(n, features))
        tile = encode_into(
            X,
            encoder.bases,
            encoder.phases,
            encoder.scale,
            encoder.sin_phases,
            np.empty((n, dim)),
        )
        np.testing.assert_array_equal(
            _bits(encoder.encode_batch(X)), _bits(tile)
        )


class TestRowTiledDerivations:
    @given(**shapes)
    @settings(max_examples=40, deadline=None)
    def test_scales_equal_whole_batch_mean(self, seed, n, dim):
        S = _rows(seed, n, dim)
        expected = np.mean(np.abs(S), axis=1)
        np.testing.assert_array_equal(_bits(row_scales(S)), _bits(expected))

    @given(**shapes, k=st.integers(min_value=1, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_sign_similarities_equal_whole_sign_matmul(self, seed, n, dim, k):
        S = _rows(seed, n, dim)
        S[np.random.default_rng(seed).random(size=S.shape) < 0.05] = 0.0
        clusters = np.random.default_rng(seed + 1).normal(size=(k, dim))
        signsT = bipolarize(clusters).astype(np.float64).T
        expected = sign_similarities(
            bipolarize(S).astype(np.float64), signsT, dim
        )
        np.testing.assert_array_equal(
            _bits(row_tiled_sign_similarities(S, signsT, dim)),
            _bits(expected),
        )
