"""Contamination benchmark — the Mahalanobis gate's recovery under outliers.

Three streaming runs (64-row batches, D=2048, k=4) over 6 000 Friedman-1
rows, each scored by RMSE on the same 1 500 clean held-out rows:

* ``clean`` — a ``drop``-policy stream over the uncontaminated rows;
* ``contaminated`` — the same stream after
  :func:`~repro.noise.injection.outlier_burst` replaces 10 % of the
  joint ``[x, y]`` rows with correlated heavy-tailed outliers (``drop``
  only removes non-finite values, so these sail through);
* ``gated`` — the contaminated stream behind the ``mahalanobis`` guard,
  with an :class:`~repro.robust.AdaptiveConformal` calibrator riding the
  prequential residuals.

**Recovery** is the fraction of the contamination-induced RMSE gap the
gate wins back: ``(contaminated - gated) / (contaminated - clean)``.
Asserts the acceptance criteria: recovery ≥ 0.8, and prequential
conformal coverage at nominal 90 % inside [0.86, 0.94].

Writes ``benchmarks/results/robustness_contamination.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import save_result
from repro.core.config import RegHDConfig
from repro.datasets import load_dataset
from repro.evaluation import render_table
from repro.metrics import root_mean_squared_error
from repro.noise.injection import outlier_burst
from repro.reliability.resilient import ResilientStreamingRegHD
from repro.robust.conformal import AdaptiveConformal

N_ROWS = 6000
N_TEST = 1500
BATCH_ROWS = 64
CONTAMINATION = 0.1
ALPHA = 0.1
CONFIG = RegHDConfig(dim=2048, n_models=4, seed=0)


def _stream(X, y, X_test, y_test, guard, conformal=None):
    """One streaming run: its clean-test RMSE and the guard's row counts."""
    stream = ResilientStreamingRegHD(
        X.shape[1], CONFIG, guard=guard, conformal=conformal
    )
    for lo in range(0, len(X), BATCH_ROWS):
        stream.update(X[lo : lo + BATCH_ROWS], y[lo : lo + BATCH_ROWS])
    rmse = root_mean_squared_error(y_test, stream.model.predict(X_test))
    return {
        "guard": guard,
        "rmse": rmse,
        "rows_dropped": stream.guard.total.n_dropped_rows,
        "rows_gated": stream.guard.total.n_gated_rows,
    }


@pytest.fixture(scope="module")
def result():
    data = load_dataset(
        "friedman1", n_samples=N_ROWS + N_TEST, n_features=8, seed=0
    )
    X, y = data.X[:N_ROWS], data.y[:N_ROWS]
    X_test, y_test = data.X[N_ROWS:], data.y[N_ROWS:]
    # Contaminate the *joint* rows: the burst direction spans features
    # and target together, the correlated structure marginal range
    # checks cannot see.
    Z = np.hstack([X, y[:, np.newaxis]])
    Z_dirty = outlier_burst(Z, CONTAMINATION, seed=1, magnitude=10.0)
    X_dirty, y_dirty = Z_dirty[:, :-1], Z_dirty[:, -1]
    calibrator = AdaptiveConformal(alpha=ALPHA, window=512)
    runs = {
        "clean": _stream(X, y, X_test, y_test, "drop"),
        "contaminated": _stream(X_dirty, y_dirty, X_test, y_test, "drop"),
        "gated": _stream(
            X_dirty, y_dirty, X_test, y_test, "mahalanobis", calibrator
        ),
    }
    gap = runs["contaminated"]["rmse"] - runs["clean"]["rmse"]
    won = runs["contaminated"]["rmse"] - runs["gated"]["rmse"]
    return {
        "runs": runs,
        "recovery": won / gap,
        "coverage": calibrator.coverage,
        "n_outliers": int((Z_dirty != Z).any(axis=1).sum()),
    }


def test_contamination_recovery(result):
    runs = result["runs"]
    table = render_table(
        [{"run": name, **run} for name, run in runs.items()], precision=3
    )
    summary = (
        f"recovery  : {result['recovery']:.2%} of the contamination RMSE gap\n"
        f"coverage  : {result['coverage']:.2%} prequential at alpha={ALPHA}\n"
        f"outliers  : {result['n_outliers']} of {N_ROWS} rows"
    )
    save_result("robustness_contamination", table + "\n\n" + summary)

    # Contamination must actually hurt the undefended baseline, or the
    # recovery ratio is meaningless.
    assert runs["contaminated"]["rmse"] > runs["clean"]["rmse"]
    assert runs["gated"]["rows_gated"] > 0


def test_recovery_meets_acceptance(result):
    """The gate wins back >= 80 % of the contamination RMSE gap."""
    assert result["recovery"] >= 0.8


def test_conformal_coverage_near_nominal(result):
    """Streaming conformal coverage at nominal 90 % within [86 %, 94 %]."""
    assert 0.86 <= result["coverage"] <= 0.94
