"""Fault injection *during training* — the intro's training-phase claim.

The paper motivates HD learning with: "ML algorithms in the training
phase have very high sensitivity to noise and failure in the hardware"
(Sec. 1).  These harnesses train RegHD and the MLP comparator while
corrupting their parameters after every epoch — modelling an unreliable
accelerator that computes updates correctly but stores parameters in
faulty memory — and report the final test quality per fault rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.mlp import MLPRegressor
from repro.core.multi import MultiModelRegHD
from repro.exceptions import ConfigurationError
from repro.metrics import mean_squared_error
from repro.noise.injection import INJECTORS
from repro.types import FloatArray, SeedLike
from repro.utils.rng import derive_generator


@dataclass(frozen=True)
class TrainingFaultPoint:
    """Final test quality for training under one fault rate."""

    rate: float
    mse: float


@dataclass(frozen=True)
class TrainingFaultCurve:
    """A quality-vs-training-fault-rate sweep for one model family."""

    label: str
    injector: str
    points: tuple[TrainingFaultPoint, ...]

    @property
    def rates(self) -> FloatArray:
        """Fault rates of the sweep."""
        return np.array([p.rate for p in self.points])

    @property
    def mses(self) -> FloatArray:
        """Final test MSE per fault rate."""
        return np.array([p.mse for p in self.points])

    def degradation(self) -> FloatArray:
        """Relative MSE growth over the fault-free run."""
        clean = self.points[0].mse
        if clean <= 0:
            raise ConfigurationError("fault-free MSE must be positive")
        return self.mses / clean - 1.0


def _validate(rates: list[float], injector: str, epochs: int) -> None:
    if not rates or rates[0] != 0.0:
        raise ConfigurationError(
            "rates must start at 0.0 (the fault-free reference)"
        )
    if injector not in INJECTORS:
        raise ConfigurationError(
            f"unknown injector {injector!r}; available: {sorted(INJECTORS)}"
        )
    if epochs < 1:
        raise ConfigurationError(f"epochs must be >= 1, got {epochs}")


def train_reghd_with_faults(
    config_factory,
    X_train: FloatArray,
    y_train: FloatArray,
    X_test: FloatArray,
    y_test: FloatArray,
    *,
    rates: list[float],
    injector: str = "sign_flip",
    epochs: int = 10,
    seed: SeedLike = 0,
) -> TrainingFaultCurve:
    """Train RegHD with per-epoch parameter corruption at each rate.

    ``config_factory()`` must return a fresh :class:`RegHDConfig`-built
    :class:`MultiModelRegHD` (so every rate trains an identical model).
    """
    _validate(rates, injector, epochs)
    inject = INJECTORS[injector]
    points = []
    for i, rate in enumerate(rates):
        model: MultiModelRegHD = config_factory()
        for epoch in range(epochs):
            model.partial_fit(X_train, y_train)
            if rate > 0.0:
                rng = derive_generator(seed, i, epoch)
                model.models.integer[:] = inject(
                    model.models.integer, rate, rng
                )
                model.models.rebinarize()
        points.append(
            TrainingFaultPoint(
                rate, mean_squared_error(y_test, model.predict(X_test))
            )
        )
    return TrainingFaultCurve(
        label="MultiModelRegHD", injector=injector, points=tuple(points)
    )


def train_mlp_with_faults(
    mlp_factory,
    X_train: FloatArray,
    y_train: FloatArray,
    X_test: FloatArray,
    y_test: FloatArray,
    *,
    rates: list[float],
    injector: str = "sign_flip",
    epochs: int = 10,
    seed: SeedLike = 0,
) -> TrainingFaultCurve:
    """Train the MLP comparator with per-epoch weight corruption.

    ``mlp_factory()`` must return a fresh single-epoch-configured
    :class:`MLPRegressor` (``epochs=1``); the harness drives the epoch
    loop so faults land between epochs, mirroring the RegHD harness.
    """
    _validate(rates, injector, epochs)
    inject = INJECTORS[injector]
    points = []
    for i, rate in enumerate(rates):
        model: MLPRegressor = mlp_factory()
        for epoch in range(epochs):
            if epoch == 0:
                model.fit(X_train, y_train)
            else:
                # Continue training from the (possibly corrupted) weights:
                # re-run fit's epoch loop manually via a single-epoch fit
                # on the standardised data path.
                model.early_stopping_patience = 0
                model.epochs = 1
                _continue_mlp_training(model, X_train, y_train)
            if rate > 0.0:
                for layer in range(len(model.weights_)):
                    rng = derive_generator(seed, i, epoch, layer)
                    model.weights_[layer][:] = inject(
                        model.weights_[layer], rate, rng
                    )
        points.append(
            TrainingFaultPoint(
                rate, mean_squared_error(y_test, model.predict(X_test))
            )
        )
    return TrainingFaultCurve(
        label="MLPRegressor", injector=injector, points=tuple(points)
    )


def _continue_mlp_training(
    model: MLPRegressor, X: FloatArray, y: FloatArray
) -> None:
    """One additional SGD epoch on an already-fitted MLP, keeping weights."""
    Xs = (X - model._x_mean) / model._x_scale
    ys = model.scaler.transform(y)
    n = Xs.shape[0]
    order = model._rng.permutation(n)
    for start in range(0, n, model.batch_size):
        idx = order[start : start + model.batch_size]
        pred, pres, posts = model._forward(Xs[idx])
        err = pred - ys[idx]
        grads_w, grads_b = model._backward(err, pres, posts)
        for layer in range(len(model.weights_)):
            model.weights_[layer] -= model.lr * grads_w[layer]
            model.biases_[layer] -= model.lr * grads_b[layer]
