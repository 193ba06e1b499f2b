"""Tests for multi-output RegHD."""

import numpy as np
import pytest

from repro import RegHDConfig
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant
from repro.core.multioutput import MultiOutputRegHD
from repro.exceptions import ConfigurationError, NotFittedError
from repro.metrics import r2_score

CONFIG = RegHDConfig(
    dim=512, n_models=4, seed=0,
    convergence=ConvergencePolicy(max_epochs=10, patience=3),
)


@pytest.fixture(scope="module")
def task():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 5))
    Y = np.column_stack(
        [
            np.sin(2 * X[:, 0]) + X[:, 1],
            X[:, 2] * X[:, 3],
            np.cos(X[:, 4]),
        ]
    )
    Xte = rng.normal(size=(200, 5))
    Yte = np.column_stack(
        [
            np.sin(2 * Xte[:, 0]) + Xte[:, 1],
            Xte[:, 2] * Xte[:, 3],
            np.cos(Xte[:, 4]),
        ]
    )
    return X, Y, Xte, Yte


class TestMultiOutput:
    def test_shapes(self, task):
        X, Y, Xte, _ = task
        model = MultiOutputRegHD(5, 3, CONFIG).fit(X, Y)
        assert model.predict(Xte).shape == (200, 3)

    def test_learns_every_output(self, task):
        X, Y, Xte, Yte = task
        model = MultiOutputRegHD(5, 3, CONFIG).fit(X, Y)
        pred = model.predict(Xte)
        for output in range(3):
            assert r2_score(Yte[:, output], pred[:, output]) > 0.3, output

    def test_heads_share_one_encoder(self, task):
        X, Y, _, _ = task
        model = MultiOutputRegHD(5, 3, CONFIG)
        assert all(head.encoder is model.encoder for head in model.heads)

    def test_single_output_matches_multimodel(self, task):
        """A 1-output wrapper must reproduce MultiModelRegHD exactly."""
        from repro.core.multi import MultiModelRegHD

        X, Y, Xte, _ = task
        wrapper = MultiOutputRegHD(5, 1, CONFIG).fit(X, Y[:, :1])
        solo = MultiModelRegHD(5, CONFIG).fit(X, Y[:, 0])
        np.testing.assert_allclose(
            wrapper.predict(Xte)[:, 0], solo.predict(Xte)
        )

    def test_1d_targets_accepted_for_single_output(self, task):
        X, Y, Xte, _ = task
        model = MultiOutputRegHD(5, 1, CONFIG).fit(X, Y[:, 0])
        assert model.predict(Xte).shape == (200, 1)

    def test_wrong_output_count_rejected(self, task):
        X, Y, _, _ = task
        with pytest.raises(ConfigurationError):
            MultiOutputRegHD(5, 2, CONFIG).fit(X, Y)  # Y has 3 columns

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            MultiOutputRegHD(5, 2, CONFIG).predict(np.zeros((1, 5)))

    def test_partial_fit(self, task):
        X, Y, Xte, Yte = task
        model = MultiOutputRegHD(5, 3, CONFIG)
        for start in range(0, 400, 100):
            model.partial_fit(X[start : start + 100], Y[start : start + 100])
        assert np.isfinite(model.predict(Xte)).all()

    def test_validation_forwarded(self, task):
        X, Y, Xte, Yte = task
        model = MultiOutputRegHD(5, 3, CONFIG)
        model.fit(X, Y, X_val=Xte, Y_val=Yte)
        for head in model.heads:
            assert head.history_ is not None
            assert head.history_.records[0].val_mse is not None

    @pytest.mark.parametrize("given", ["X_val", "Y_val"])
    def test_fit_rejects_half_a_validation_pair(self, task, given):
        X, Y, Xte, Yte = task
        model = MultiOutputRegHD(5, 3, CONFIG)
        missing = "Y_val" if given == "X_val" else "X_val"
        half = {given: Xte if given == "X_val" else Yte}
        with pytest.raises(ConfigurationError, match=f"without {missing}"):
            model.fit(X, Y, **half)
        assert not model.fitted
        assert not any(head.fitted for head in model.heads)

    @pytest.mark.parametrize("n_outputs", [0, -1])
    def test_invalid_outputs(self, n_outputs):
        with pytest.raises(ConfigurationError):
            MultiOutputRegHD(5, n_outputs, CONFIG)

    def test_requires_integer_seed(self):
        with pytest.raises(ConfigurationError):
            MultiOutputRegHD(5, 2, CONFIG.with_overrides(seed=None))

    def test_repr(self):
        assert "MultiOutputRegHD" in repr(MultiOutputRegHD(5, 2, CONFIG))


class TestSharedEncoding:
    """fit, partial_fit and predict encode each batch once for every
    head."""

    @pytest.mark.parametrize(
        "predict_quant",
        [
            PredictQuant.FULL,
            PredictQuant.BINARY_QUERY,
            PredictQuant.BINARY_BOTH,
        ],
        ids=lambda q: q.value,
    )
    def test_matches_independent_heads(self, task, monkeypatch, predict_quant):
        from repro.core.multi import MultiModelRegHD
        from repro.encoding.nonlinear import NonlinearEncoder

        X, Y, Xte, _ = task
        config = CONFIG.with_overrides(
            cluster_quant=ClusterQuant.FRAMEWORK, predict_quant=predict_quant
        )
        model = MultiOutputRegHD(5, 3, config)
        # The per-head reference: each head encodes its own copy of X.
        heads = [
            MultiModelRegHD(
                5,
                config.with_overrides(seed=config.seed + output),
                encoder=model.encoder,
            )
            for output in range(3)
        ]
        calls = []
        encode_batch = NonlinearEncoder.encode_batch

        def counting(self, X):
            calls.append(len(X))
            return encode_batch(self, X)

        monkeypatch.setattr(NonlinearEncoder, "encode_batch", counting)
        # 40-row batches span two mini-batches, 16-row batches one.
        for start, stop in ((0, 40), (40, 56), (56, 96), (96, 112)):
            before = len(calls)
            model.partial_fit(X[start:stop], Y[start:stop])
            assert len(calls) == before + 1
            for output, head in enumerate(heads):
                head.partial_fit(X[start:stop], Y[start:stop, output])
        for mine, ref in zip(model.heads, heads):
            for name in ("clusters", "models"):
                dual, ref_dual = getattr(mine, name), getattr(ref, name)
                np.testing.assert_array_equal(dual.integer, ref_dual.integer)
                np.testing.assert_array_equal(dual.binary, ref_dual.binary)
            assert mine.scaler.get_state() == ref.scaler.get_state()
        before = len(calls)
        predictions = model.predict(Xte)
        assert len(calls) == before + 1
        np.testing.assert_array_equal(
            predictions, np.column_stack([head.predict(Xte) for head in heads])
        )

    @pytest.mark.parametrize(
        "predict_quant",
        [PredictQuant.FULL, PredictQuant.BINARY_BOTH],
        ids=lambda q: q.value,
    )
    def test_fit_encodes_once_for_every_head(
        self, task, monkeypatch, predict_quant
    ):
        """fit encodes the training rows and the validation rows once
        each for all heads, and every head ends bit-identical to its own
        fit on the same rows."""
        from repro.core.multi import MultiModelRegHD
        from repro.encoding.nonlinear import NonlinearEncoder

        X, Y, Xte, Yte = task
        config = CONFIG.with_overrides(
            cluster_quant=ClusterQuant.FRAMEWORK, predict_quant=predict_quant
        )
        model = MultiOutputRegHD(5, 3, config)
        calls = []
        encode_batch = NonlinearEncoder.encode_batch

        def counting(self, X):
            calls.append(len(X))
            return encode_batch(self, X)

        monkeypatch.setattr(NonlinearEncoder, "encode_batch", counting)
        model.fit(X[:120], Y[:120], X_val=Xte[:40], Y_val=Yte[:40])
        assert calls == [120, 40]
        monkeypatch.undo()

        predictions = model.predict(Xte)
        for output, mine in enumerate(model.heads):
            ref = MultiModelRegHD(
                5,
                config.with_overrides(seed=config.seed + output),
                encoder=model.encoder,
            ).fit(
                X[:120],
                Y[:120, output],
                X_val=Xte[:40],
                y_val=Yte[:40, output],
            )
            for name in ("clusters", "models"):
                dual, ref_dual = getattr(mine, name), getattr(ref, name)
                np.testing.assert_array_equal(dual.integer, ref_dual.integer)
                np.testing.assert_array_equal(dual.binary, ref_dual.binary)
            assert mine.scaler.get_state() == ref.scaler.get_state()
            assert mine.history_.records == ref.history_.records
            np.testing.assert_array_equal(
                predictions[:, output], ref.predict(Xte)
            )
