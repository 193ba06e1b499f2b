"""Experiment runner: dataset → preprocess → model → metrics, seeded.

The single code path every benchmark uses, so Table 1 and the figures are
all produced by identical train/evaluate plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.datasets.base import Dataset
from repro.datasets.preprocessing import StandardScaler
from repro.datasets.splits import Split, train_test_split
from repro.exceptions import ConfigurationError
from repro.metrics import mean_squared_error, r2_score, root_mean_squared_error
from repro.telemetry.timing import monotonic
from repro.types import FloatArray


class _FitPredict(Protocol):
    def fit(self, X: FloatArray, y: FloatArray) -> object: ...  # pragma: no cover

    def predict(self, X: FloatArray) -> FloatArray: ...  # pragma: no cover


#: Builds a fresh model given the number of input features.
ModelFactory = Callable[[int], _FitPredict]


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one (model, dataset) training run."""

    dataset: str
    model: str
    mse: float
    rmse: float
    r2: float
    fit_seconds: float
    predict_seconds: float
    n_epochs: int | None = None

    def as_row(self) -> dict[str, object]:
        """Flat dict for the reporting tables."""
        return {
            "dataset": self.dataset,
            "model": self.model,
            "mse": self.mse,
            "rmse": self.rmse,
            "r2": self.r2,
            "fit_s": self.fit_seconds,
            "predict_s": self.predict_seconds,
            "epochs": self.n_epochs,
        }


def run_on_split(
    factory: ModelFactory,
    split: Split,
    *,
    dataset_name: str = "",
    model_label: str = "",
    standardize: bool = True,
) -> ExperimentResult:
    """Train a fresh model on a split and score it on the held-out test set.

    Features are standardised with statistics fit on the training portion
    only (no leakage); targets stay in original units so MSEs are
    comparable across models.
    """
    X_train, X_test = split.X_train, split.X_test
    if standardize:
        scaler = StandardScaler().fit(split.X_train)
        X_train = scaler.transform(split.X_train)
        X_test = scaler.transform(split.X_test)

    model = factory(X_train.shape[1])
    t0 = monotonic()
    model.fit(X_train, split.y_train)
    fit_seconds = monotonic() - t0

    t0 = monotonic()
    predictions = model.predict(X_test)
    predict_seconds = monotonic() - t0

    n_epochs: int | None = None
    history = getattr(model, "history_", None)
    if history is not None:
        n_epochs = history.n_epochs
    elif hasattr(model, "n_epochs_"):
        n_epochs = int(model.n_epochs_)

    return ExperimentResult(
        dataset=dataset_name,
        model=model_label or type(model).__name__,
        mse=mean_squared_error(split.y_test, predictions),
        rmse=root_mean_squared_error(split.y_test, predictions),
        r2=r2_score(split.y_test, predictions),
        fit_seconds=fit_seconds,
        predict_seconds=predict_seconds,
        n_epochs=n_epochs,
    )


def run_experiment(
    factory: ModelFactory,
    dataset: Dataset,
    *,
    model_label: str = "",
    test_fraction: float = 0.25,
    seed: int = 0,
    standardize: bool = True,
    max_train_samples: int | None = None,
) -> ExperimentResult:
    """End-to-end: split a dataset, train, and score.

    ``max_train_samples`` caps the dataset size before splitting (used by
    the benchmarks to bound runtime on the large surrogates).
    """
    if max_train_samples is not None:
        if max_train_samples < 2:
            raise ConfigurationError(
                f"max_train_samples must be >= 2, got {max_train_samples}"
            )
        dataset = dataset.subsample(max_train_samples, seed=seed)
    split = train_test_split(dataset, test_fraction=test_fraction, seed=seed)
    return run_on_split(
        factory,
        split,
        dataset_name=dataset.name,
        model_label=model_label,
        standardize=standardize,
    )


def cross_validate(
    factory: ModelFactory,
    dataset: Dataset,
    *,
    k: int = 5,
    model_label: str = "",
    seed: int = 0,
    standardize: bool = True,
) -> list[ExperimentResult]:
    """k-fold cross-validation: one :class:`ExperimentResult` per fold.

    Aggregate with e.g. ``np.mean([r.mse for r in results])``.
    """
    from repro.datasets.splits import k_fold_splits

    results = []
    for fold_index, split in enumerate(
        k_fold_splits(dataset, k=k, seed=seed)
    ):
        result = run_on_split(
            factory,
            split,
            dataset_name=f"{dataset.name}[fold{fold_index}]",
            model_label=model_label,
            standardize=standardize,
        )
        results.append(result)
    return results


def run_many(
    factories: dict[str, ModelFactory],
    dataset: Dataset,
    *,
    test_fraction: float = 0.25,
    seed: int = 0,
    max_train_samples: int | None = None,
) -> list[ExperimentResult]:
    """Run several models on the *same* split of one dataset."""
    if max_train_samples is not None:
        dataset = dataset.subsample(max_train_samples, seed=seed)
    split = train_test_split(dataset, test_fraction=test_fraction, seed=seed)
    return [
        run_on_split(
            factory, split, dataset_name=dataset.name, model_label=label
        )
        for label, factory in factories.items()
    ]
