"""Tests for the quantisers."""

import warnings

import numpy as np
import pytest

from repro.ops.quantize import (
    binarize,
    binary_to_bipolar,
    bipolar_to_binary,
    bipolarize,
    quantization_error,
    stochastic_binarize,
)


class TestBinarize:
    def test_threshold_zero(self):
        out = binarize([-1.0, 0.0, 0.5, 2.0])
        np.testing.assert_array_equal(out, [0, 0, 1, 1])
        assert out.dtype == np.uint8

    def test_custom_threshold(self):
        np.testing.assert_array_equal(
            binarize([0.4, 0.6], threshold=0.5), [0, 1]
        )

    def test_idempotent_on_binary_above_half(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        np.testing.assert_array_equal(
            binarize(bits, threshold=0.5), bits
        )

    def test_2d(self):
        out = binarize(np.array([[-1.0, 1.0], [2.0, -2.0]]))
        np.testing.assert_array_equal(out, [[0, 1], [1, 0]])


class TestBipolarize:
    def test_sign(self):
        np.testing.assert_array_equal(
            bipolarize([-2.0, 3.0, -0.1]), [-1, 1, -1]
        )

    def test_zero_maps_to_tie_value(self):
        np.testing.assert_array_equal(bipolarize([0.0]), [1])
        np.testing.assert_array_equal(bipolarize([0.0], tie_value=-1), [-1])

    def test_invalid_tie_value(self):
        with pytest.raises(ValueError):
            bipolarize([1.0], tie_value=0)

    @pytest.mark.parametrize(
        "tie_value, expected",
        [(1, [-1, 1, 1, 1, -1]), (-1, [-1, -1, -1, 1, -1])],
    )
    def test_nan_and_signed_zero(self, tie_value, expected):
        """One comparison per sign: NaN fails it and maps to -1 (no
        warning int8 cast to 0); both zeros are ties."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = bipolarize([np.nan, 0.0, -0.0, 1.0, -1.0], tie_value=tie_value)
        np.testing.assert_array_equal(out, expected)
        assert out.dtype == np.int8

    def test_output_never_contains_zero(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=100)
        v[::10] = 0.0
        assert 0 not in bipolarize(v)


class TestConversions:
    def test_roundtrip_binary(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        np.testing.assert_array_equal(
            bipolar_to_binary(binary_to_bipolar(bits)), bits
        )

    def test_roundtrip_bipolar(self):
        vec = np.array([-1, 1, 1, -1], dtype=np.int8)
        np.testing.assert_array_equal(
            binary_to_bipolar(bipolar_to_binary(vec)), vec
        )

    def test_binary_to_bipolar_rejects_other_values(self):
        with pytest.raises(ValueError):
            binary_to_bipolar([0, 2])

    def test_bipolar_to_binary_rejects_zero(self):
        with pytest.raises(ValueError):
            bipolar_to_binary([-1, 0, 1])


class TestStochasticBinarize:
    def test_output_binary(self):
        out = stochastic_binarize(np.random.default_rng(0).normal(size=64), seed=1)
        assert set(np.unique(out)) <= {0, 1}

    def test_deterministic_given_seed(self):
        v = np.random.default_rng(0).normal(size=64)
        np.testing.assert_array_equal(
            stochastic_binarize(v, seed=5), stochastic_binarize(v, seed=5)
        )

    def test_extreme_values_deterministic(self):
        v = np.array([1e6, -1e6])
        np.testing.assert_array_equal(
            stochastic_binarize(v, seed=0, scale=1.0), [1, 0]
        )

    def test_unbiased_at_zero(self):
        out = stochastic_binarize(np.zeros(20_000), seed=2, scale=1.0)
        assert abs(out.mean() - 0.5) < 0.02

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            stochastic_binarize(np.ones(4), scale=-1.0)


class TestQuantizationError:
    def test_zero_for_already_binary_direction(self):
        v = np.array([2.0, -2.0, 2.0, -2.0])
        assert quantization_error(v, bipolarize(v)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_vector(self):
        assert quantization_error(np.zeros(8), np.zeros(8)) == 0.0

    def test_positive_for_lossy_quantisation(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=256)
        err = quantization_error(v, bipolarize(v))
        assert 0.0 < err < 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantization_error(np.ones(4), np.ones(5))
