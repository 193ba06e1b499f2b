"""Serialization round-trip matrix + format-v1 compatibility.

Complements ``test_serialization.py`` (error paths, tamper detection):
this module proves that *every* registered estimator — including the
composites that became serialisable with the registry-driven v2 format —
round-trips bit-exactly through ``save_model``/``load_model``, across
the full ClusterQuant × PredictQuant matrix, and that the checked-in v1
fixture files keep loading forever.
"""

import pathlib

import numpy as np
import pytest

from repro import MultiModelRegHD, RegHDConfig, load_model, save_model
from repro.core import (
    ClusterQuant,
    ConvergencePolicy,
    HDClassifier,
    MultiOutputRegHD,
    PredictQuant,
    RegHDEnsemble,
)
from repro.serialization import read_metadata

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

DIM = 96
SEED = 1234
CONV = ConvergencePolicy(max_epochs=4, patience=2)


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(SEED)
    X = rng.normal(size=(72, 4))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2] - X[:, 3]
    X_query = rng.normal(size=(16, 4))
    return X, y, X_query


def multi_config(cq: ClusterQuant, pq: PredictQuant) -> RegHDConfig:
    return RegHDConfig(
        dim=DIM,
        n_models=3,
        seed=SEED,
        convergence=CONV,
        cluster_quant=cq,
        predict_quant=pq,
    )


@pytest.mark.parametrize("cq", list(ClusterQuant))
@pytest.mark.parametrize("pq", list(PredictQuant))
def test_round_trip_matrix(tmp_path, data, cq, pq):
    """Every quantisation combination reloads bit-exactly (format v2)."""
    X, y, X_query = data
    model = MultiModelRegHD(4, multi_config(cq, pq)).fit(X, y)
    path = save_model(model, tmp_path / "m.npz")
    clone = load_model(path)
    assert read_metadata(path)["format_version"] == 2
    assert clone.config.cluster_quant is cq
    assert clone.config.predict_quant is pq
    np.testing.assert_array_equal(
        clone.predict(X_query), model.predict(X_query)
    )


def test_partial_fit_model_round_trips_frozen_scaler(tmp_path, data):
    """A streaming model reloads with its frozen target scaling intact and
    keeps learning bit-exactly from where it left off."""
    X, y, X_query = data
    model = MultiModelRegHD(
        4, multi_config(ClusterQuant.FRAMEWORK, PredictQuant.BINARY_QUERY)
    )
    model.partial_fit(X[:24], y[:24])
    model.partial_fit(X[24:48], y[24:48])
    path = save_model(model, tmp_path / "stream.npz")
    clone = load_model(path)
    assert clone.scaler.fitted
    assert clone.scaler.mean == model.scaler.mean
    assert clone.scaler.scale == model.scaler.scale
    np.testing.assert_array_equal(
        clone.predict(X_query), model.predict(X_query)
    )
    # Continue the stream on both; they must stay in lockstep.
    model.partial_fit(X[48:], y[48:])
    clone.partial_fit(X[48:], y[48:])
    np.testing.assert_array_equal(
        clone.predict(X_query), model.predict(X_query)
    )


def test_multioutput_round_trip(tmp_path, data):
    """MultiOutputRegHD is serialisable via the registry (new in v2)."""
    X, y, X_query = data
    Y = np.column_stack([y, -2.0 * y + 1.0])
    model = MultiOutputRegHD(
        4, 2, RegHDConfig(dim=DIM, n_models=2, seed=SEED, convergence=CONV)
    ).fit(X, Y)
    path = save_model(model, tmp_path / "mo.npz")
    clone = load_model(path)
    assert isinstance(clone, MultiOutputRegHD)
    assert clone.n_outputs == 2
    # Heads share one encoder object after reload, as at construction.
    assert clone.heads[0].encoder is clone.heads[1].encoder
    np.testing.assert_array_equal(
        clone.predict(X_query), model.predict(X_query)
    )


def test_ensemble_round_trip(tmp_path, data):
    """RegHDEnsemble is serialisable via the registry (new in v2); member
    encoders are regenerated from the seeds rather than stored."""
    X, y, X_query = data
    model = RegHDEnsemble(
        4,
        RegHDConfig(dim=DIM, n_models=2, seed=SEED, convergence=CONV),
        n_members=3,
    ).fit(X, y)
    path = save_model(model, tmp_path / "ens.npz")
    clone = load_model(path)
    assert isinstance(clone, RegHDEnsemble)
    assert clone.n_members == 3
    np.testing.assert_array_equal(
        clone.predict(X_query), model.predict(X_query)
    )
    mean, std = model.predict_with_uncertainty(X_query)
    mean_c, std_c = clone.predict_with_uncertainty(X_query)
    np.testing.assert_array_equal(mean_c, mean)
    np.testing.assert_array_equal(std_c, std)


def test_classifier_round_trip(tmp_path):
    rng = np.random.default_rng(SEED)
    X = rng.normal(size=(60, 4))
    labels = (X[:, 0] > 0).astype(int) + 2 * (X[:, 1] > 0).astype(int)
    model = HDClassifier(4, dim=DIM, seed=SEED, convergence=CONV)
    model.fit(X, labels)
    path = save_model(model, tmp_path / "clf.npz")
    clone = load_model(path)
    X_query = rng.normal(size=(10, 4))
    np.testing.assert_array_equal(
        clone.predict(X_query), model.predict(X_query)
    )
    np.testing.assert_array_equal(
        clone.decision_scores(X_query), model.decision_scores(X_query)
    )


class TestV1Compat:
    """The checked-in v1 fixtures were written by the pre-registry
    serializer; the compat loader must keep reading them, and their
    predictions must equal their own golden entries, which
    ``tests/fixtures/generate_fixtures.py`` records from the files."""

    @pytest.fixture(scope="class")
    def golden(self):
        return np.load(FIXTURES / "golden_predictions.npz")

    @pytest.fixture(scope="class")
    def query(self):
        rng = np.random.default_rng(SEED)
        rng.normal(size=(72, 4))  # skip past the fixture training draw
        return rng.normal(size=(16, 4))

    @pytest.mark.parametrize(
        "fixture",
        [
            "v1_single.npz",
            "v1_baseline.npz",
            "v1_multi_quant.npz",
            "v1_projection.npz",
        ],
    )
    def test_v1_file_loads_and_predicts_bit_exactly(self, golden, query, fixture):
        path = FIXTURES / fixture
        assert read_metadata(path)["format_version"] == 1
        model = load_model(path)
        np.testing.assert_array_equal(model.predict(query), golden[path.stem])

    def test_v1_extra_metadata_survives(self):
        meta = read_metadata(FIXTURES / "v1_multi_quant.npz")
        assert meta["extra"] == {"stream": {"batch": 7, "forgetting": 0.97}}

    def test_v1_model_resaves_as_v2(self, tmp_path, query):
        """Loading a v1 file and saving it again upgrades the format
        without changing the predictions."""
        model = load_model(FIXTURES / "v1_multi_quant.npz")
        path = save_model(model, tmp_path / "upgraded.npz")
        assert read_metadata(path)["format_version"] == 2
        np.testing.assert_array_equal(
            load_model(path).predict(query), model.predict(query)
        )
