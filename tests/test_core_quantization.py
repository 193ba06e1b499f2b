"""Tests for the dual-copy quantisation framework."""

import numpy as np
import pytest

from repro.core.quantization import (
    ClusterQuant,
    DualCopy,
    PredictQuant,
    binarize_preserving_scale,
)
from repro.runtime import pack_sign_words


class TestBinarizePreservingScale:
    def test_sign_pattern_preserved(self):
        v = np.array([2.0, -3.0, 0.5, -0.1])
        out = binarize_preserving_scale(v)
        np.testing.assert_array_equal(np.sign(out), np.sign(v))

    def test_scale_is_mean_abs(self):
        v = np.array([2.0, -4.0])
        out = binarize_preserving_scale(v)
        np.testing.assert_allclose(np.abs(out), 3.0)

    def test_zero_vector_stays_zero(self):
        np.testing.assert_array_equal(
            binarize_preserving_scale(np.zeros(4)), np.zeros(4)
        )

    def test_batch_rows_independent(self):
        m = np.array([[1.0, -1.0], [10.0, -10.0]])
        out = binarize_preserving_scale(m)
        np.testing.assert_allclose(np.abs(out[0]), 1.0)
        np.testing.assert_allclose(np.abs(out[1]), 10.0)

    def test_single_vector_shape(self):
        out = binarize_preserving_scale(np.array([1.0, -2.0, 3.0]))
        assert out.shape == (3,)

    def test_idempotent(self):
        v = np.random.default_rng(0).normal(size=32)
        once = binarize_preserving_scale(v)
        twice = binarize_preserving_scale(once)
        np.testing.assert_allclose(once, twice)

    def test_direction_preserved_cosine(self):
        """Binarisation keeps high cosine similarity to the original —
        the property the Hamming search depends on."""
        rng = np.random.default_rng(1)
        v = rng.normal(size=2048)
        out = binarize_preserving_scale(v)
        cos = float(v @ out / (np.linalg.norm(v) * np.linalg.norm(out)))
        assert cos > 0.7  # sign quantisation of gaussian keeps sqrt(2/pi)


class TestDualCopy:
    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            DualCopy(np.zeros(8))

    def test_binary_derived_on_init(self):
        dc = DualCopy(np.array([[1.0, -2.0], [0.0, 0.0]]))
        np.testing.assert_allclose(np.abs(dc.binary[0]), 1.5)
        np.testing.assert_allclose(dc.binary[1], 0.0)

    def test_update_touches_only_integer(self):
        dc = DualCopy(np.array([[1.0, 1.0]]))
        before = dc.binary.copy()
        dc.update(0, np.array([5.0, -5.0]))
        np.testing.assert_array_equal(dc.binary, before)
        np.testing.assert_allclose(dc.integer[0], [6.0, -4.0])

    def test_rebinarize_refreshes(self):
        dc = DualCopy(np.array([[1.0, 1.0]]))
        dc.update(0, np.array([5.0, -5.0]))
        dc.rebinarize()
        np.testing.assert_allclose(np.sign(dc.binary[0]), [1.0, -1.0])

    def test_nan_poisoned_signs_match_packed_words(self):
        """A NaN component takes the sign its packed bit gives it: -1,
        never the 0 a float sign would cast to."""
        rng = np.random.default_rng(0)
        dc = DualCopy(rng.normal(size=(3, 70)))
        dc.integer[1, [0, 5, 69]] = np.nan
        dc.touch()
        dc.rebinarize()
        np.testing.assert_array_equal(np.unique(dc.signs), [-1.0, 1.0])
        np.testing.assert_array_equal(
            pack_sign_words(dc.signs), pack_sign_words(dc.integer)
        )

    def test_update_all(self):
        dc = DualCopy(np.zeros((2, 3)))
        dc.update_all(np.ones((2, 3)))
        np.testing.assert_allclose(dc.integer, 1.0)

    def test_view_selects_copy(self):
        dc = DualCopy(np.array([[2.0, -2.0]]))
        assert dc.view(binary=False) is dc.integer
        assert dc.view(binary=True) is dc.binary

    def test_shape(self):
        assert DualCopy(np.zeros((3, 5))).shape == (3, 5)


class TestDualCopyReplace:
    """``replace`` is the only safe wholesale overwrite: rebinding or
    assigning ``.integer`` directly leaves ``binary`` and the cached
    ``signs`` serving pre-overwrite values."""

    def test_replace_overwrites_in_place(self):
        dc = DualCopy(np.array([[1.0, -1.0]]))
        integer_ref = dc.integer
        dc.replace(np.array([[3.0, 4.0]]))
        assert dc.integer is integer_ref
        np.testing.assert_allclose(integer_ref, [[3.0, 4.0]])

    def test_replace_refreshes_binary(self):
        dc = DualCopy(np.array([[1.0, -1.0]]))
        dc.replace(np.array([[-2.0, 2.0]]))
        np.testing.assert_allclose(np.sign(dc.binary[0]), [-1.0, 1.0])

    def test_replace_invalidates_sign_cache(self):
        """Regression: reading ``signs``, then replacing the contents, must
        not serve the stale cached sign matrix."""
        dc = DualCopy(np.array([[1.0, 1.0]]))
        stale = dc.signs.copy()
        np.testing.assert_allclose(stale, [[1.0, 1.0]])
        dc.replace(np.array([[-5.0, -5.0]]))
        np.testing.assert_allclose(dc.signs, [[-1.0, -1.0]])

    def test_replace_rejects_shape_mismatch(self):
        dc = DualCopy(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="replace expects shape"):
            dc.replace(np.zeros((3, 2)))

    def test_naive_cluster_update_invalidates_signs(self):
        """End-to-end regression for the NAIVE quantisation branch: after
        an epoch of cluster updates, the Hamming search must see the new
        sign patterns, not the ones cached before the update."""
        from repro.core.config import ConvergencePolicy, RegHDConfig
        from repro.core.multi import MultiModelRegHD

        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y = X[:, 0] - X[:, 1]
        cfg = RegHDConfig(
            dim=64,
            n_models=2,
            seed=11,
            cluster_quant=ClusterQuant.NAIVE,
            convergence=ConvergencePolicy(max_epochs=2, patience=1),
        )
        model = MultiModelRegHD(3, cfg).fit(X, y)
        expected = np.sign(model.clusters.integer)
        expected[expected == 0] = 1.0
        np.testing.assert_array_equal(model.clusters.signs, expected)


class TestEnumCoverage:
    def test_cluster_quant_members(self):
        assert {c.value for c in ClusterQuant} == {"none", "framework", "naive"}

    def test_predict_quant_members(self):
        assert {p.value for p in PredictQuant} == {
            "full",
            "binary_query",
            "binary_model",
            "binary_both",
        }
