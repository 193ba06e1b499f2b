"""Tests for the projection, ID-level and sequence encoders."""

import numpy as np
import pytest

from repro.encoding.idlevel import IDLevelEncoder
from repro.encoding.nonlinear import NonlinearEncoder
from repro.encoding.permutation import SequenceEncoder
from repro.encoding.projection import RandomProjectionEncoder
from repro.exceptions import EncodingError
from repro.ops.similarity import cosine_similarity


class TestRandomProjectionEncoder:
    def test_linearity(self):
        """Unlike the nonlinear encoder, the raw projection IS linear."""
        enc = RandomProjectionEncoder(4, 256, seed=0)
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=4), rng.normal(size=4)
        np.testing.assert_allclose(
            enc.encode(x + y), enc.encode(x) + enc.encode(y), atol=1e-10
        )

    def test_quantized_output_is_bipolar(self):
        enc = RandomProjectionEncoder(4, 128, seed=0, quantize=True)
        out = enc.encode_batch(np.random.default_rng(1).normal(size=(5, 4)))
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_quantize_flag_property(self):
        assert RandomProjectionEncoder(4, 64, quantize=True).quantize
        assert not RandomProjectionEncoder(4, 64).quantize

    def test_deterministic(self):
        x = np.ones(4)
        a = RandomProjectionEncoder(4, 64, seed=5).encode(x)
        b = RandomProjectionEncoder(4, 64, seed=5).encode(x)
        np.testing.assert_array_equal(a, b)

    def test_invalid_base(self):
        with pytest.raises(EncodingError):
            RandomProjectionEncoder(4, 64, base="weird")

    def test_gaussian_base(self):
        enc = RandomProjectionEncoder(4, 64, seed=0, base="gaussian")
        assert enc.encode(np.ones(4)).shape == (64,)


class TestIDLevelEncoder:
    def test_shape(self):
        enc = IDLevelEncoder(6, 256, seed=0)
        assert enc.encode_batch(np.zeros((3, 6))).shape == (3, 256)

    def test_levels_property(self):
        assert IDLevelEncoder(4, 64, levels=16).levels == 16

    def test_level_index_clipping(self):
        enc = IDLevelEncoder(2, 64, seed=0, levels=8, feature_range=(-1, 1))
        idx = enc.level_index(np.array([[-99.0, 99.0]]))
        assert idx[0, 0] == 0
        assert idx[0, 1] == 7

    def test_similar_inputs_similar_encodings(self):
        enc = IDLevelEncoder(4, 4096, seed=0, levels=64)
        rng = np.random.default_rng(1)
        x = rng.normal(size=4) * 0.5
        sim_near = cosine_similarity(enc.encode(x), enc.encode(x + 0.05))
        sim_far = cosine_similarity(enc.encode(x), enc.encode(-x + 2.0))
        assert sim_near > sim_far

    def test_invalid_levels(self):
        with pytest.raises(EncodingError):
            IDLevelEncoder(4, 64, levels=1)

    def test_invalid_range(self):
        with pytest.raises(EncodingError):
            IDLevelEncoder(4, 64, feature_range=(1.0, -1.0))

    def test_deterministic(self):
        x = np.linspace(-1, 1, 5)
        a = IDLevelEncoder(5, 128, seed=2).encode(x)
        b = IDLevelEncoder(5, 128, seed=2).encode(x)
        np.testing.assert_array_equal(a, b)


class TestSequenceEncoder:
    def test_window_property(self):
        enc = SequenceEncoder(8, 128, seed=0)
        assert enc.window == 8
        assert enc.in_features == 8

    def test_shape(self):
        enc = SequenceEncoder(5, 256, seed=0)
        assert enc.encode_batch(np.zeros((4, 5))).shape == (4, 256)

    def test_order_sensitivity(self):
        """Reversing a sequence must change the encoding — position is
        bound via permutation."""
        enc = SequenceEncoder(6, 2048, seed=0)
        rng = np.random.default_rng(2)
        seq = rng.uniform(-1, 1, 6)
        fwd = enc.encode(seq)
        rev = enc.encode(seq[::-1])
        assert cosine_similarity(fwd, rev) < 0.9

    def test_similar_sequences_similar(self):
        enc = SequenceEncoder(6, 4096, seed=0)
        rng = np.random.default_rng(3)
        seq = rng.uniform(-1, 1, 6)
        near = seq + 0.02
        far = rng.uniform(-1, 1, 6) * 2.5
        assert cosine_similarity(enc.encode(seq), enc.encode(near)) > (
            cosine_similarity(enc.encode(seq), enc.encode(far))
        )

    def test_invalid_levels(self):
        with pytest.raises(EncodingError):
            SequenceEncoder(4, 64, levels=0)

    def test_invalid_range(self):
        with pytest.raises(EncodingError):
            SequenceEncoder(4, 64, value_range=(2.0, 2.0))

    def test_deterministic(self):
        seq = np.linspace(-1, 1, 4)
        a = SequenceEncoder(4, 128, seed=9).encode(seq)
        b = SequenceEncoder(4, 128, seed=9).encode(seq)
        np.testing.assert_array_equal(a, b)


class TestBinaryViews:
    def test_encode_binary_values(self):
        enc = RandomProjectionEncoder(4, 128, seed=0)
        out = enc.encode_binary(np.random.default_rng(0).normal(size=(3, 4)))
        assert set(np.unique(out)) <= {0, 1}

    def test_encode_bipolar_values(self):
        enc = RandomProjectionEncoder(4, 128, seed=0)
        out = enc.encode_bipolar(np.random.default_rng(0).normal(size=(3, 4)))
        assert set(np.unique(out)) <= {-1, 1}

    def test_single_row_binary(self):
        enc = RandomProjectionEncoder(4, 128, seed=0)
        assert enc.encode_binary(np.ones(4)).shape == (128,)


class TestFrozenArrays:
    """Every registered encoder stores its random arrays read-only, at
    construction and when rebuilt from state, so a checkpoint directory
    can hold them once for all of its checkpoints."""

    ENCODERS = {
        "nonlinear": lambda: NonlinearEncoder(4, 64, seed=0),
        "projection": lambda: RandomProjectionEncoder(4, 64, seed=0),
        "sequence": lambda: SequenceEncoder(4, 64, seed=0, levels=8),
    }

    @staticmethod
    def _assert_frozen(encoder):
        _, arrays = encoder.get_state()
        assert arrays
        for values in arrays.values():
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[(0,) * values.ndim] = 0.0
            with pytest.raises(ValueError):
                values *= 2.0

    @pytest.mark.parametrize("name", sorted(ENCODERS))
    def test_constructed_arrays_are_read_only(self, name):
        self._assert_frozen(self.ENCODERS[name]())

    @pytest.mark.parametrize("name", sorted(ENCODERS))
    def test_from_state_arrays_are_read_only(self, name):
        encoder = self.ENCODERS[name]()
        meta, arrays = encoder.get_state()
        writable = {key: np.array(value) for key, value in arrays.items()}
        rebuilt = type(encoder).from_state(meta, writable)
        self._assert_frozen(rebuilt)
        # The caller's arrays are copied, never locked.
        assert all(value.flags.writeable for value in writable.values())
        X = np.random.default_rng(1).normal(size=(5, 4))
        np.testing.assert_array_equal(
            rebuilt.encode_batch(X), encoder.encode_batch(X)
        )
