"""Regenerate the checked-in golden predictions.

Run from the repo root with ``PYTHONPATH=src python
tests/fixtures/generate_fixtures.py``.  It writes one file,
``golden_predictions.npz``:

* fit + predict outputs of ``SingleModelRegHD``, ``BaselineHD`` and
  ``MultiModelRegHD`` (every ``ClusterQuant`` × ``PredictQuant``
  combination), plus a projection-encoder model and a frozen-scaler
  ``partial_fit`` sequence.  ``tests/test_estimator_golden.py`` retrains
  with the same seeds and asserts bit-identical predictions;
* ``v1_*`` — the predictions of the checked-in ``v1_*.npz`` model files,
  loaded through the compat loader.
  ``tests/test_serialization_matrix.py`` asserts they stay bit-exact.

The ``v1_*.npz`` files are inputs, never outputs: they were written by
the format-v1 serializer, which no later tree has, so this script only
reads them.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro import BaselineHD, MultiModelRegHD, RegHDConfig, SingleModelRegHD
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant
from repro.encoding import RandomProjectionEncoder
from repro.serialization import load_model

HERE = pathlib.Path(__file__).resolve().parent
#: the checked-in format-v1 model files
V1_FILES = ("v1_single", "v1_baseline", "v1_multi_quant", "v1_projection")

DIM = 96
SEED = 1234
CONV = ConvergencePolicy(max_epochs=4, patience=2)


def fixture_data():
    """The deterministic dataset every fixture is built from."""
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


def main() -> None:
    X, y, X_query = fixture_data()
    golden: dict[str, np.ndarray] = {}

    single = SingleModelRegHD(4, dim=DIM, seed=SEED, convergence=CONV)
    single.fit(X, y)
    golden["single"] = single.predict(X_query)

    baseline = BaselineHD(4, dim=DIM, n_bins=8, seed=SEED, convergence=CONV)
    baseline.fit(X, y)
    golden["baseline_hd"] = baseline.predict(X_query)

    for cq in ClusterQuant:
        for pq in PredictQuant:
            model = MultiModelRegHD(4, multi_config(cq, pq))
            model.fit(X, y)
            golden[f"multi_{cq.value}_{pq.value}"] = model.predict(X_query)

    proj = SingleModelRegHD(
        4,
        encoder=RandomProjectionEncoder(4, DIM, seed=SEED),
        convergence=CONV,
    )
    proj.fit(X, y)
    golden["single_projection"] = proj.predict(X_query)

    # Frozen-scaler streaming path: the first partial_fit batch freezes the
    # target scaling, later batches must reuse it.
    stream = MultiModelRegHD(
        4, multi_config(ClusterQuant.FRAMEWORK, PredictQuant.BINARY_QUERY)
    )
    for start in (0, 24, 48):
        stream.partial_fit(X[start : start + 24], y[start : start + 24])
    golden["multi_partial_fit"] = stream.predict(X_query)

    for name in V1_FILES:
        golden[name] = load_model(HERE / f"{name}.npz").predict(X_query)

    np.savez(HERE / "golden_predictions.npz", **golden)
    print(f"wrote {len(golden)} golden entries to {HERE}")


if __name__ == "__main__":
    main()
