"""Tests for the dataset container, generators, surrogates and registry."""

import numpy as np
import pytest

from repro.datasets import (
    PAPER_DATASETS,
    SPECS,
    Dataset,
    available_datasets,
    friedman1,
    friedman2,
    friedman3,
    load_dataset,
    piecewise,
    regime_mixture,
    register_dataset,
    sinusoid,
)
from repro.exceptions import DatasetError


class TestDatasetContainer:
    def test_basic(self):
        ds = Dataset("t", np.zeros((4, 2)), np.zeros(4))
        assert ds.n_samples == 4
        assert ds.n_features == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DatasetError):
            Dataset("t", np.zeros((4, 2)), np.zeros(5))

    def test_rejects_1d_x(self):
        with pytest.raises(DatasetError):
            Dataset("t", np.zeros(4), np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            Dataset("t", np.zeros((0, 2)), np.zeros(0))

    def test_feature_name_count_checked(self):
        with pytest.raises(DatasetError):
            Dataset("t", np.zeros((4, 2)), np.zeros(4), feature_names=("a",))

    def test_subsample(self):
        ds = Dataset("t", np.arange(20.0).reshape(10, 2), np.arange(10.0))
        sub = ds.subsample(4, seed=0)
        assert sub.n_samples == 4
        # Rows stay aligned with targets.
        for row, target in zip(sub.X, sub.y):
            assert row[0] == target * 2.0

    def test_subsample_noop_when_larger(self):
        ds = Dataset("t", np.zeros((5, 1)), np.zeros(5))
        assert ds.subsample(10) is ds

    def test_subsample_invalid(self):
        ds = Dataset("t", np.zeros((5, 1)), np.zeros(5))
        with pytest.raises(DatasetError):
            ds.subsample(0)


class TestSyntheticGenerators:
    def test_friedman1_shape_and_determinism(self):
        a = friedman1(100, seed=1)
        b = friedman1(100, seed=1)
        assert a.X.shape == (100, 10)
        np.testing.assert_array_equal(a.y, b.y)

    def test_friedman1_distractors_irrelevant(self):
        ds = friedman1(3000, n_features=8, noise=0.0, seed=0)
        # Correlation with a distractor column should be near zero.
        corr = np.corrcoef(ds.X[:, 7], ds.y)[0, 1]
        assert abs(corr) < 0.08

    def test_friedman1_needs_five_features(self):
        with pytest.raises(DatasetError):
            friedman1(10, n_features=4)

    def test_friedman2_and_3_shapes(self):
        assert friedman2(50, seed=0).X.shape == (50, 4)
        assert friedman3(50, seed=0).X.shape == (50, 4)

    def test_friedman3_target_range(self):
        ds = friedman3(500, noise=0.0, seed=0)
        assert np.all(np.abs(ds.y) <= np.pi / 2)

    def test_sinusoid_noise_free_identity(self):
        ds = sinusoid(200, n_features=2, frequency=1.0, noise=0.0, seed=0)
        np.testing.assert_allclose(ds.y, np.sin(ds.X).sum(axis=1))

    def test_piecewise_has_regimes(self):
        ds = piecewise(400, n_pieces=4, noise=0.0, seed=0)
        assert ds.X.shape == (400, 4)
        assert ds.y.std() > 0

    def test_piecewise_invalid(self):
        with pytest.raises(DatasetError):
            piecewise(10, n_pieces=1)

    def test_regime_mixture_standardised(self):
        ds = regime_mixture(1000, 6, seed=0)
        assert abs(ds.y.mean()) < 1e-9
        assert ds.y.std() == pytest.approx(1.0, abs=1e-9)

    def test_regime_mixture_deterministic(self):
        a = regime_mixture(100, 4, seed=5)
        b = regime_mixture(100, 4, seed=5)
        np.testing.assert_array_equal(a.X, b.X)

    def test_regime_mixture_invalid(self):
        with pytest.raises(DatasetError):
            regime_mixture(0, 4)
        with pytest.raises(DatasetError):
            regime_mixture(10, 0)
        with pytest.raises(DatasetError):
            regime_mixture(10, 4, n_regimes=0)


class TestUCISurrogates:
    @pytest.mark.parametrize("name", PAPER_DATASETS)
    def test_shapes_match_specs(self, name):
        ds = load_dataset(name)
        spec = SPECS[name]
        assert ds.X.shape == (spec.n_samples, spec.n_features)
        assert ds.y.shape == (spec.n_samples,)

    @pytest.mark.parametrize("name", PAPER_DATASETS)
    def test_deterministic(self, name):
        np.testing.assert_array_equal(
            load_dataset(name, seed=3).y, load_dataset(name, seed=3).y
        )

    def test_target_moments_approximate_spec(self):
        ds = load_dataset("ccpp")
        spec = SPECS["ccpp"]
        assert ds.y.mean() == pytest.approx(spec.target_mean, rel=0.05)
        assert ds.y.std() == pytest.approx(spec.target_std, rel=0.35)

    def test_wine_targets_integer(self):
        ds = load_dataset("wine")
        np.testing.assert_array_equal(ds.y, np.round(ds.y))

    def test_clipping_respected(self):
        boston = load_dataset("boston")
        assert boston.y.min() >= 5.0
        assert boston.y.max() <= 50.0

    def test_heavy_tail_skewness(self):
        ds = load_dataset("forest")
        y = ds.y
        skew = float(np.mean(((y - y.mean()) / y.std()) ** 3))
        assert skew > 1.0  # strongly right-skewed, like burned areas

    def test_surrogate_description_flags_substitution(self):
        assert "SURROGATE" in load_dataset("diabetes").description

    def test_build_surrogate_signal_is_learnable(self):
        """A ridge fit must explain a chunk of variance, confirming the
        signal_fraction knob produces learnable structure."""
        from repro.baselines.linear import RidgeRegression
        from repro.metrics import r2_score

        ds = load_dataset("ccpp").subsample(1500, seed=0)
        model = RidgeRegression(1.0).fit(ds.X, ds.y)
        assert r2_score(ds.y, model.predict(ds.X)) > 0.2


class TestRegistry:
    def test_paper_datasets_registered(self):
        assert set(PAPER_DATASETS) <= set(available_datasets())

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("not-a-dataset")

    def test_duplicate_registration_raises(self):
        with pytest.raises(DatasetError):
            register_dataset("boston", lambda seed=0: None)  # type: ignore[arg-type]

    def test_duplicate_error_names_the_registration_site(self):
        """The error points at the file:line that holds the name."""
        with pytest.raises(DatasetError, match=r"registry\.py:\d+"):
            register_dataset("boston", lambda seed=0: None)  # type: ignore[arg-type]

    def test_replace_overwrites_and_unregister_frees_the_name(self):
        from repro.datasets import unregister_dataset

        marker = friedman1(10, seed=0)
        register_dataset("registry-test-temp", lambda seed=0: marker)
        try:
            with pytest.raises(DatasetError):
                register_dataset("registry-test-temp", lambda seed=0: marker)
            register_dataset(
                "registry-test-temp", lambda seed=0: marker, replace=True
            )
            assert load_dataset("registry-test-temp") is marker
        finally:
            unregister_dataset("registry-test-temp")
        assert "registry-test-temp" not in available_datasets()
        with pytest.raises(DatasetError):
            unregister_dataset("registry-test-temp")

    def test_dataset_params_reports_loader_signature(self):
        from repro.datasets import dataset_params

        params = dataset_params("friedman1")
        assert "n_samples" in params
        assert "seed" in params
        with pytest.raises(DatasetError):
            dataset_params("not-a-dataset")

    def test_dataset_tags(self):
        from repro.datasets import dataset_tags

        assert "paper" in dataset_tags("boston")
        assert "workload" in dataset_tags("sensor_forecast")
        assert dataset_tags("never-registered") == ()

    def test_loader_kwargs_forwarded(self):
        ds = load_dataset("friedman1", seed=0, n_samples=37)
        assert ds.n_samples == 37
