"""One Eq.-1 formula on every path: the float encoder is half the fused
tile's ``2H = sin(2p + φ) − sin φ``, bit for bit.

The float encoder (:func:`repro.encoding.nonlinear.encode_into`) and the
fused encode→pack tile (:func:`repro.runtime.fused.encode_pack_tile`)
both call :func:`repro.encoding.nonlinear.double_h`.  So wherever the fused
tile's column-block projection rounds as the whole-batch ``np.dot`` does,
its sign words are the float encoder's by construction.  On x86-64 with
numpy's bundled OpenBLAS the two projections agree on every shape of the
grid below; :data:`PROJECTIONS_DIFFER` names any shape where they do not.
The scales are not compared: the two paths reduce in different orders and
agree only to about 1e-15.
"""

import numpy as np
import pytest

from repro.encoding.nonlinear import NonlinearEncoder, encode_into
from repro.runtime.fused import (
    EncoderOperands,
    FusedScratch,
    encode_pack_tile,
    fused_block_cols,
)
from repro.runtime.packing import pack_sign_words

ROWS = [1, 2, 7, 8, 31, 32, 256]
DIMS = [64, 4000, 4096]

#: ``(rows, dim)`` shapes where a fused block's projection rounds
#: differently from the whole-batch ``np.dot``
PROJECTIONS_DIFFER: frozenset = frozenset()


def _case(rows: int, dim: int):
    encoder = NonlinearEncoder(6, dim, seed=3)
    X = np.random.default_rng(rows).normal(size=(rows, 6))
    return encoder, X


def _two_h(p, encoder):
    """The fused formula, written out: ``sin(2p·scale + φ) − sin φ``."""
    return np.sin(p * (2.0 * encoder.scale) + encoder.phases) - np.sin(
        encoder.phases
    )


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("rows", ROWS)
def test_the_float_encoding_is_half_the_fused_formula(rows, dim):
    encoder, X = _case(rows, dim)
    two_h = _two_h(np.dot(X, encoder.bases), encoder)
    np.testing.assert_array_equal(2.0 * encoder.encode_batch(X), two_h)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("rows", ROWS)
def test_fused_words_are_the_float_encodings_sign_words(rows, dim):
    encoder, X = _case(rows, dim)
    operands = EncoderOperands(
        encoder.bases, encoder.phases, encoder.scale, encoder.sin_phases
    )
    words, _ = encode_pack_tile(X, operands, FusedScratch(rows, dim))
    cols = fused_block_cols(dim, rows)
    blocks = np.concatenate(
        [np.dot(X, encoder.bases[:, d : d + cols]) for d in range(0, dim, cols)],
        axis=1,
    )
    # The fused tile's arithmetic, on its own projection...
    np.testing.assert_array_equal(words, pack_sign_words(_two_h(blocks, encoder)))
    # ...is the float encoder's wherever the projections agree.
    same_projection = np.array_equal(blocks, np.dot(X, encoder.bases))
    assert same_projection == ((rows, dim) not in PROJECTIONS_DIFFER), (
        f"the block projection of {rows} x {dim} rounds "
        f"{'as' if same_projection else 'unlike'} the whole-batch np.dot"
    )
    if same_projection:
        dense = encode_into(X, *operands, np.empty((rows, dim)))
        np.testing.assert_array_equal(words, pack_sign_words(dense))


def test_the_identity_is_eq1_to_a_few_ulps():
    """``H`` stays within a few ulps of the paper's ``cos(p + φ)·sin(p)``
    and keeps every one of its signs on standard-normal rows."""
    encoder, X = _case(300, 4096)
    p = np.dot(X, encoder.bases) * encoder.scale
    paper = np.cos(p + encoder.phases) * np.sin(p)
    H = encoder.encode_batch(X)
    np.testing.assert_allclose(H, paper, rtol=0, atol=4e-15)
    assert np.array_equal(H >= 0, paper >= 0)


def test_sin_phases_are_derived_read_only_and_never_saved():
    encoder = NonlinearEncoder(6, 256, seed=3)
    meta, arrays = encoder.get_state()
    assert set(arrays) == {"bases", "phases"}
    clone = NonlinearEncoder.from_state(meta, arrays)
    np.testing.assert_array_equal(clone.sin_phases, np.sin(encoder.phases))
    np.testing.assert_array_equal(clone.sin_phases, encoder.sin_phases)
    with pytest.raises(ValueError):
        encoder.sin_phases[0] = 0.0
