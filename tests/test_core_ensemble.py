"""Tests for RegHD seed ensembles and cross-validation."""

import numpy as np
import pytest

from repro import MultiModelRegHD, RegHDConfig
from repro.core import ConvergencePolicy
from repro.core.ensemble import RegHDEnsemble
from repro.exceptions import ConfigurationError, NotFittedError
from repro.metrics import mean_squared_error

CONFIG = RegHDConfig(
    dim=256, n_models=4, seed=0,
    convergence=ConvergencePolicy(max_epochs=8, patience=3),
)


class TestEnsemble:
    def test_members_have_distinct_seeds(self):
        ensemble = RegHDEnsemble(5, CONFIG, n_members=3)
        seeds = {m.config.seed for m in ensemble.members}
        assert seeds == {0, 1, 2}

    @pytest.mark.parametrize("given", ["X_val", "y_val"])
    def test_fit_rejects_half_a_validation_pair(self, tiny_regression, given):
        X, y, Xte, yte = tiny_regression
        ensemble = RegHDEnsemble(5, CONFIG, n_members=2)
        missing = "y_val" if given == "X_val" else "X_val"
        half = {given: Xte if given == "X_val" else yte}
        with pytest.raises(ConfigurationError, match=f"without {missing}"):
            ensemble.fit(X, y, **half)
        assert not ensemble.fitted
        assert not any(member.fitted for member in ensemble.members)

    def test_predict_is_member_mean(self, tiny_regression):
        X, y, Xte, _ = tiny_regression
        ensemble = RegHDEnsemble(5, CONFIG, n_members=3).fit(X, y)
        stacked = np.stack([m.predict(Xte) for m in ensemble.members])
        np.testing.assert_allclose(
            ensemble.predict(Xte), stacked.mean(axis=0)
        )

    def test_single_member_equals_base_model(self, tiny_regression):
        X, y, Xte, _ = tiny_regression
        ensemble = RegHDEnsemble(5, CONFIG, n_members=1).fit(X, y)
        solo = MultiModelRegHD(5, CONFIG).fit(X, y)
        np.testing.assert_allclose(ensemble.predict(Xte), solo.predict(Xte))

    def test_ensemble_not_worse_than_average_member(self, tiny_regression):
        """Variance reduction: ensemble MSE <= mean member MSE."""
        X, y, Xte, yte = tiny_regression
        ensemble = RegHDEnsemble(5, CONFIG, n_members=5).fit(X, y)
        member_mses = [
            mean_squared_error(yte, m.predict(Xte)) for m in ensemble.members
        ]
        ensemble_mse = mean_squared_error(yte, ensemble.predict(Xte))
        assert ensemble_mse <= np.mean(member_mses) + 1e-12

    def test_uncertainty_shapes_and_nonnegative(self, tiny_regression):
        X, y, Xte, _ = tiny_regression
        ensemble = RegHDEnsemble(5, CONFIG, n_members=5).fit(X, y)
        mean, sigma = ensemble.predict_with_uncertainty(Xte[:20])
        assert mean.shape == sigma.shape == (20,)
        assert np.all(sigma >= 0)

    def test_far_ood_predictions_regress_to_training_mean(self, tiny_regression):
        """Encodings of far-OOD inputs are near-orthogonal to every model
        hypervector, so predictions collapse toward the training-target
        mean — a documented HDC property."""
        X, y, _, _ = tiny_regression
        ensemble = RegHDEnsemble(5, CONFIG, n_members=3).fit(X, y)
        far = X[:50] + 25.0
        pred_far = ensemble.predict(far)
        pred_in = ensemble.predict(X[:50])
        y_mean = float(np.mean(y))
        assert np.mean(np.abs(pred_far - y_mean)) < np.mean(
            np.abs(pred_in - y_mean)
        )

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            RegHDEnsemble(5, CONFIG).predict(np.zeros((1, 5)))

    def test_invalid_members(self):
        with pytest.raises(ConfigurationError):
            RegHDEnsemble(5, CONFIG, n_members=0)

    def test_requires_integer_seed(self):
        with pytest.raises(ConfigurationError):
            RegHDEnsemble(5, CONFIG.with_overrides(seed=None))

    def test_repr(self):
        assert "RegHDEnsemble" in repr(RegHDEnsemble(5, CONFIG, n_members=2))


class TestCrossValidate:
    def test_fold_count_and_labels(self):
        from repro.baselines import RidgeRegression
        from repro.datasets import Dataset
        from repro.evaluation.runner import cross_validate

        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        ds = Dataset("lin", X, X @ np.array([1.0, 2.0, -1.0]))
        results = cross_validate(
            lambda n: RidgeRegression(1e-6), ds, k=4, model_label="ridge"
        )
        assert len(results) == 4
        assert {r.dataset for r in results} == {
            "lin[fold0]", "lin[fold1]", "lin[fold2]", "lin[fold3]"
        }
        assert all(r.mse < 1e-6 for r in results)
