"""Tests for the shared estimator runtime (`repro.core.estimator`)."""

import numpy as np
import pytest

from repro.core import (
    MultiModelRegHD,
    MultiOutputRegHD,
    RegHDConfig,
    SingleModelRegHD,
)
from repro.core.config import ConvergencePolicy
from repro.core.estimator import (
    BaseRegHDEstimator,
    TargetScaler,
    encoder_from_state,
    encoder_state,
    take_array,
)
from repro.encoding import NonlinearEncoder
from repro.exceptions import ConfigurationError, DimensionalityError


class TestTargetScaler:
    def test_fit_estimates_mean_and_scale(self):
        s = TargetScaler().fit(np.array([1.0, 3.0]))
        assert s.mean == 2.0
        assert s.scale == 1.0  # std of [1, 3]
        assert s.fitted

    def test_constant_targets_fall_back_to_unit_scale(self):
        s = TargetScaler().fit(np.full(10, 7.0))
        assert s.mean == 7.0
        assert s.scale == 1.0

    def test_transform_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        y = rng.normal(3.0, 5.0, size=64)
        s = TargetScaler().fit(y)
        np.testing.assert_allclose(s.inverse(s.transform(y)), y)

    def test_freeze_once_ignores_later_batches(self):
        s = TargetScaler()
        first = np.array([0.0, 2.0])
        s.freeze_once(first)
        mean, scale = s.mean, s.scale
        s.freeze_once(np.array([100.0, 200.0]))
        assert (s.mean, s.scale) == (mean, scale)

    def test_fit_refits_unconditionally(self):
        s = TargetScaler().fit(np.array([0.0, 2.0]))
        s.fit(np.array([10.0, 10.0]))
        assert s.mean == 10.0

    def test_reset_restores_identity(self):
        s = TargetScaler().fit(np.array([5.0, 15.0]))
        s.reset()
        assert not s.fitted
        y = np.array([1.0, 2.0])
        np.testing.assert_array_equal(s.transform(y), y)

    def test_state_round_trip(self):
        s = TargetScaler().fit(np.array([1.0, 5.0, 9.0]))
        clone = TargetScaler()
        clone.set_state(s.get_state())
        assert (clone.mean, clone.scale, clone.fitted) == (
            s.mean,
            s.scale,
            s.fitted,
        )

    def test_unfitted_is_identity(self):
        s = TargetScaler()
        y = np.array([-2.0, 4.0])
        np.testing.assert_array_equal(s.transform(y), y)
        np.testing.assert_array_equal(s.inverse(y), y)


class TestEncoderStateHelpers:
    def test_round_trip_preserves_encodings(self):
        enc = NonlinearEncoder(3, 32, np.random.default_rng(0))
        meta, arrays = encoder_state(enc)
        assert meta["type"] == "nonlinear"
        assert all(key.startswith("encoder_") for key in arrays)
        clone = encoder_from_state(meta, arrays)
        X = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(
            enc.encode_batch(X), clone.encode_batch(X)
        )

    def test_take_array_missing_name(self):
        with pytest.raises(ConfigurationError, match="missing array"):
            take_array({}, "model_vector")

    def test_take_array_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="shape"):
            take_array({"v": np.zeros(3)}, "v", shape=(4,))


class TestBaseEstimatorProtocol:
    def test_resolve_encoder_rejects_feature_mismatch(self):
        enc = NonlinearEncoder(3, 16, np.random.default_rng(0))
        with pytest.raises(ConfigurationError, match="in_features=5"):
            BaseRegHDEstimator.resolve_encoder(5, enc, lambda: None)

    def test_partial_fit_freezes_scaler_on_first_batch(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(32, 4))
        y = rng.normal(size=32) * 10
        model = SingleModelRegHD(4, dim=64, seed=0)
        model.partial_fit(X[:16], y[:16])
        mean, scale = model.scaler.mean, model.scaler.scale
        model.partial_fit(X[16:], y[16:] + 1000.0)
        assert (model.scaler.mean, model.scaler.scale) == (mean, scale)

    def test_fit_refits_scaler(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(24, 4))
        model = SingleModelRegHD(4, dim=64, seed=0)
        model.fit(X, np.zeros(24) + 5.0)
        model.fit(X, np.zeros(24) - 5.0)
        assert model.scaler.mean == -5.0

    @pytest.mark.parametrize("cls", [SingleModelRegHD, MultiModelRegHD])
    def test_partial_fit_on_encoded_query_matches_plain(self, cls):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 4))
        y = X[:, 0] - X[:, 1]
        plain, shared = (cls(4, dim=64, seed=0) for _ in range(2))
        # two 32-row mini-batches, then one
        for rows in (slice(0, 40), slice(40, 64)):
            plain.partial_fit(X[rows], y[rows])
            shared.partial_fit(
                X[rows], y[rows], encoded=shared._encode_query(X[rows])
            )
        for name, values in plain._model_arrays().items():
            np.testing.assert_array_equal(shared._model_arrays()[name], values)
        np.testing.assert_array_equal(shared.predict(X), plain.predict(X))

    @pytest.mark.parametrize("rows,dim", [(15, 64), (16, 32)])
    def test_partial_fit_rejects_misshaped_encoded_query(self, rows, dim):
        from repro.runtime import Query

        model = SingleModelRegHD(4, dim=64, seed=0)
        encoded = Query(np.ones((rows, dim)))
        with pytest.raises(ConfigurationError, match="encoded query"):
            model.partial_fit(np.zeros((16, 4)), np.zeros(16), encoded=encoded)
        assert not model.fitted

    @pytest.mark.parametrize("estimator", ["single", "multi", "baseline_hd"])
    @pytest.mark.parametrize("given", ["X_val", "y_val"])
    def test_fit_rejects_half_a_validation_pair(self, estimator, given):
        from repro.registry import MODEL_REGISTRY

        rng = np.random.default_rng(7)
        X, y = rng.normal(size=(24, 4)), rng.normal(size=24)
        model = MODEL_REGISTRY[estimator](4, dim=64, seed=0)
        missing = "y_val" if given == "X_val" else "X_val"
        half = {given: X[:8] if given == "X_val" else y[:8]}
        with pytest.raises(ConfigurationError, match=f"without {missing}"):
            model.fit(X, y, **half)
        assert not model.fitted

    def test_unsupported_partial_fit_raises(self):
        from repro.core import BaselineHD

        model = BaselineHD(4, dim=64, n_bins=4)
        with pytest.raises(ConfigurationError, match="partial_fit"):
            model.partial_fit(np.zeros((2, 4)), np.zeros(2))

    def test_get_state_marks_fitted(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 3))
        y = X[:, 0]
        model = MultiModelRegHD(
            3,
            RegHDConfig(
                dim=64,
                n_models=2,
                seed=0,
                convergence=ConvergencePolicy(max_epochs=2, patience=1),
            ),
        ).fit(X, y)
        meta, arrays = model.get_state()
        assert meta["fitted"] is True
        clone = MultiModelRegHD.from_state(meta, arrays)
        assert clone.fitted
        np.testing.assert_array_equal(clone.predict(X), model.predict(X))

    def test_set_state_is_in_place(self):
        """Restoring must write through the existing arrays so external
        references (scrubber shadows, compiled plans) stay valid."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        y = X[:, 0]
        cfg = RegHDConfig(
            dim=64,
            n_models=2,
            seed=0,
            convergence=ConvergencePolicy(max_epochs=2, patience=1),
        )
        model = MultiModelRegHD(3, cfg).fit(X, y)
        state = model.get_state()
        models_ref = model.models.integer
        model.partial_fit(X, y + 3.0)  # drift away from the snapshot
        model.set_state(*state)
        assert model.models.integer is models_ref
        np.testing.assert_array_equal(
            model.predict(X), MultiModelRegHD.from_state(*state).predict(X)
        )


class TestEmptyPartialFit:
    """A zero-row ``partial_fit`` raises before it touches any state: the
    model stays unfitted (its target scaler is not frozen on no targets),
    and the next batch predicts bit for bit as in a run that never saw
    the empty one."""

    MODELS = {
        "single": lambda: SingleModelRegHD(5, dim=256, seed=0),
        "multi": lambda: MultiModelRegHD(5, dim=256, seed=0),
        "multioutput": lambda: MultiOutputRegHD(
            5, 2, RegHDConfig(dim=256, seed=0)
        ),
    }

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_empty_batch_changes_nothing(self, name):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(64, 5))
        y = X[:, 0] - X[:, 1]
        Y = np.column_stack([y, -y]) if name == "multioutput" else y
        poked, clean = self.MODELS[name](), self.MODELS[name]()
        with pytest.raises(DimensionalityError, match="at least one row"):
            poked.partial_fit(X[:0], Y[:0])
        assert not poked.fitted
        poked.partial_fit(X, Y)
        clean.partial_fit(X, Y)
        out = poked.predict(X)
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, clean.predict(X))
