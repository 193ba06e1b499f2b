"""RegHD: Robust and Efficient Regression in Hyper-Dimensional Learning Systems.

A full reproduction of the DAC 2021 paper by Hernandez-Cano, Zou, Zhuo,
Yin and Imani.  The package provides:

* :class:`SingleModelRegHD` / :class:`MultiModelRegHD` — the paper's
  regression algorithms (Secs. 2.3-2.4) with the Section-3 quantisation
  framework (:class:`ClusterQuant`, :class:`PredictQuant`);
* :class:`BaselineHD` — the HD-classification comparator;
* :mod:`repro.encoding` — the nonlinear similarity-preserving encoder
  (Eq. 1) and ablation encoders;
* :mod:`repro.baselines` — from-scratch DNN / linear / tree / SVR / k-NN
  regressors for Table 1;
* :mod:`repro.datasets` — seeded synthetic surrogates of the seven UCI
  evaluation datasets;
* :mod:`repro.engine` — the packed-binary inference engine: fitted
  models compile to frozen :class:`CompiledPlan` s executing tiled
  XOR + popcount prediction (:func:`compile_model`);
* :mod:`repro.hardware` — the analytic operation-count cost model behind
  the efficiency figures;
* :mod:`repro.noise` — fault injection for the robustness claims;
* :mod:`repro.evaluation` — experiment runner, grid search and reporting.

Quickstart::

    import numpy as np
    from repro import MultiModelRegHD, RegHDConfig

    rng = np.random.default_rng(0)
    X = rng.normal(size=(256, 8))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] * X[:, 2]

    model = MultiModelRegHD(8, RegHDConfig(dim=2000, n_models=8))
    model.fit(X, y)
    y_hat = model.predict(X)
"""

from repro._version import __version__
from repro.core import (
    BaselineHD,
    ClusterQuant,
    ConvergencePolicy,
    MultiModelRegHD,
    PredictQuant,
    RegHDConfig,
    SingleModelRegHD,
    TrainingHistory,
)
from repro.encoding import (
    Encoder,
    IDLevelEncoder,
    NonlinearEncoder,
    RandomProjectionEncoder,
    SequenceEncoder,
)
from repro.engine import CompiledPlan, compile_model
from repro.serialization import (
    load_delta,
    load_model,
    save_delta,
    save_model,
)
from repro.metrics import (
    mean_absolute_error,
    mean_squared_error,
    normalized_quality,
    quality_loss,
    r2_score,
    root_mean_squared_error,
)

__all__ = [
    "__version__",
    "BaselineHD",
    "ClusterQuant",
    "ConvergencePolicy",
    "MultiModelRegHD",
    "PredictQuant",
    "RegHDConfig",
    "SingleModelRegHD",
    "TrainingHistory",
    "Encoder",
    "IDLevelEncoder",
    "NonlinearEncoder",
    "RandomProjectionEncoder",
    "SequenceEncoder",
    "CompiledPlan",
    "compile_model",
    "load_delta",
    "load_model",
    "save_delta",
    "save_model",
    "mean_absolute_error",
    "mean_squared_error",
    "normalized_quality",
    "quality_loss",
    "r2_score",
    "root_mean_squared_error",
]
