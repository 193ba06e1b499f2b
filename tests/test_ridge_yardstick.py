"""Held-out quality against a fixed yardstick: ridge on the same encoding.

Goldens and parity hashes pin bits, so they only say *that* an output
moved.  These tests say whether quality moved with it.  The reference is
ridge regression solved in closed form on the estimator's own normalised
Eq.-1 encoding (the hyperdimensional transform estimates a regression
function in closed form in the encoded space), so it moves with the
encoder but not with training.  Its penalty is picked from a fixed grid
on a split of the training rows, never on the held-out rows.

Each estimator path's held-out RMSE over the yardstick's must stay under
a bound set from measurement when this file was added; the bounds only
tighten.  Setup: the ``regime`` dataset (seed 0, 4 000 rows, features
standardised on the training rows), the first 2 000 rows to train and the
last 2 000 held out, D=1024, k=8, every other setting at its default.
The binary-model combos wait for their training to converge.
"""

import numpy as np
import pytest

from repro import MultiModelRegHD, RegHDConfig, SingleModelRegHD
from repro.core import ClusterQuant, PredictQuant
from repro.datasets import load_dataset
from repro.ops.normalize import normalize_rows

DIM = 1024
N_TRAIN = N_HELD_OUT = 2000
#: ridge penalties tried; the pick is made on the last quarter of the
#: training rows, fitted on the first three quarters
LAMBDAS = 10.0 ** np.arange(-4, 3)

#: estimator path → bound on held-out RMSE / yardstick RMSE
RATIO_BOUNDS = {
    "single": 1.10,
    "none/full": 1.05,
    "framework/full": 1.08,
    "framework/binary_query": 1.18,
}


@pytest.fixture(scope="module")
def data():
    """``(X_train, y_train, X_held_out, y_held_out)``, features
    standardised with the training rows' moments."""
    ds = load_dataset("regime", seed=0, n_samples=N_TRAIN + N_HELD_OUT)
    train = ds.X[:N_TRAIN]
    X = (ds.X - train.mean(axis=0)) / train.std(axis=0)
    return X[:N_TRAIN], ds.y[:N_TRAIN], X[N_TRAIN:], ds.y[N_TRAIN:]


def _ridge_weights(H, y, lambdas):
    """Ridge weights for each penalty, from one eigendecomposition of
    the smaller Gram matrix (primal ``HᵀH`` or dual ``HHᵀ``)."""
    if len(H) >= H.shape[1]:
        evals, V = np.linalg.eigh(H.T @ H)
        b = V.T @ (H.T @ y)
        return [V @ (b / (evals + lam)) for lam in lambdas]
    evals, U = np.linalg.eigh(H @ H.T)
    b = U.T @ y
    return [H.T @ (U @ (b / (evals + lam))) for lam in lambdas]


def _rmse(pred, y):
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _split_errors(H, y):
    """Validation RMSE of each grid penalty: fitted on the first three
    quarters of the training rows, scored on the last quarter."""
    cut = len(H) * 3 // 4
    mean = y[:cut].mean()
    weights = _ridge_weights(H[:cut], y[:cut] - mean, LAMBDAS)
    return [_rmse(H[cut:] @ w + mean, y[cut:]) for w in weights]


@pytest.fixture(scope="module")
def yardstick(data):
    """Held-out RMSE of ridge on an estimator's normalised encoding; one
    fit per distinct encoder."""
    X_train, y_train, X_held, y_held = data
    cache = {}

    def rmse(model) -> float:
        key = model.encoder.bases.tobytes() + model.encoder.phases.tobytes()
        if key not in cache:
            H = normalize_rows(model.encoder.encode_batch(X_train))
            lam = LAMBDAS[int(np.argmin(_split_errors(H, y_train)))]
            mean = y_train.mean()
            (w,) = _ridge_weights(H, y_train - mean, [lam])
            H_held = normalize_rows(model.encoder.encode_batch(X_held))
            cache[key] = _rmse(H_held @ w + mean, y_held)
        return cache[key]

    return rmse


def _fit(path: str, X, y):
    if path == "single":
        return SingleModelRegHD(X.shape[1], dim=DIM, seed=0).fit(X, y)
    cq, pq = path.split("/")
    config = RegHDConfig(
        dim=DIM,
        n_models=8,
        seed=0,
        cluster_quant=ClusterQuant(cq),
        predict_quant=PredictQuant(pq),
    )
    return MultiModelRegHD(X.shape[1], config).fit(X, y)


@pytest.mark.parametrize("path", list(RATIO_BOUNDS))
def test_held_out_rmse_stays_near_the_ridge_yardstick(data, yardstick, path):
    X_train, y_train, X_held, y_held = data
    model = _fit(path, X_train, y_train)
    ratio = _rmse(model.predict(X_held), y_held) / yardstick(model)
    assert ratio < RATIO_BOUNDS[path], f"{path}: {ratio:.4f}x the yardstick"


def test_the_yardstick_fits_and_picks_an_inner_penalty(data):
    """The ridge reference beats the mean predictor by a wide margin, and
    its penalty pick lands inside the grid, not on an edge."""
    X_train, y_train, _, _ = data
    model = SingleModelRegHD(X_train.shape[1], dim=DIM, seed=0)
    errors = _split_errors(
        normalize_rows(model.encoder.encode_batch(X_train)), y_train
    )
    assert 0 < int(np.argmin(errors)) < len(LAMBDAS) - 1
    assert min(errors) < 0.5 * np.std(y_train)
