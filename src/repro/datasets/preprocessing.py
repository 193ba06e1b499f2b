"""Feature and target scaling, fit-on-train / apply-on-test style.

The paper standardises inputs before encoding (the nonlinear encoder's
bandwidth assumes O(1) feature magnitudes); these small fit/transform
objects make that explicit and leak-free in the evaluation harness.
"""

from __future__ import annotations

from repro.exceptions import NotFittedError
from repro.types import ArrayLike, FloatArray
from repro.utils.validation import check_1d, check_2d


class StandardScaler:
    """Per-feature standardisation to zero mean / unit variance.

    Constant features get unit scale so they pass through centred rather
    than dividing by zero.
    """

    def __init__(self) -> None:
        self._mean: FloatArray | None = None
        self._scale: FloatArray | None = None

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._mean is not None

    def fit(self, X: ArrayLike) -> "StandardScaler":
        """Estimate per-feature mean and standard deviation."""
        arr = check_2d("X", X)
        self._mean = arr.mean(axis=0)
        scale = arr.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._scale = scale
        return self

    def transform(self, X: ArrayLike) -> FloatArray:
        """Apply the fitted standardisation."""
        if self._mean is None or self._scale is None:
            raise NotFittedError("StandardScaler.transform called before fit")
        arr = check_2d("X", X)
        return (arr - self._mean) / self._scale

    def fit_transform(self, X: ArrayLike) -> FloatArray:
        """Fit on ``X`` and return its transformed copy."""
        return self.fit(X).transform(X)

    def inverse_transform(self, X: ArrayLike) -> FloatArray:
        """Undo the standardisation."""
        if self._mean is None or self._scale is None:
            raise NotFittedError(
                "StandardScaler.inverse_transform called before fit"
            )
        arr = check_2d("X", X)
        return arr * self._scale + self._mean


class MinMaxScaler:
    """Per-feature scaling onto a target interval (default [0, 1])."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        low, high = feature_range
        if not low < high:
            raise ValueError(
                f"feature_range must satisfy low < high, got {feature_range}"
            )
        self._low = float(low)
        self._high = float(high)
        self._data_min: FloatArray | None = None
        self._data_span: FloatArray | None = None

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._data_min is not None

    def fit(self, X: ArrayLike) -> "MinMaxScaler":
        """Record the per-feature min and span of the training data."""
        arr = check_2d("X", X)
        self._data_min = arr.min(axis=0)
        span = arr.max(axis=0) - self._data_min
        span[span == 0.0] = 1.0
        self._data_span = span
        return self

    def transform(self, X: ArrayLike) -> FloatArray:
        """Map features onto the configured range (train-range affine map)."""
        if self._data_min is None or self._data_span is None:
            raise NotFittedError("MinMaxScaler.transform called before fit")
        arr = check_2d("X", X)
        unit = (arr - self._data_min) / self._data_span
        return unit * (self._high - self._low) + self._low

    def fit_transform(self, X: ArrayLike) -> FloatArray:
        """Fit on ``X`` and return its transformed copy."""
        return self.fit(X).transform(X)


class TargetScaler:
    """Standardise a 1-D target and map predictions back."""

    def __init__(self) -> None:
        self._mean = 0.0
        self._scale = 1.0
        self._fitted = False

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    def fit(self, y: ArrayLike) -> "TargetScaler":
        """Estimate target mean and standard deviation."""
        arr = check_1d("y", y)
        self._mean = float(arr.mean())
        scale = float(arr.std())
        self._scale = scale if scale > 0 else 1.0
        self._fitted = True
        return self

    def transform(self, y: ArrayLike) -> FloatArray:
        """Standardise targets."""
        if not self._fitted:
            raise NotFittedError("TargetScaler.transform called before fit")
        return (check_1d("y", y) - self._mean) / self._scale

    def fit_transform(self, y: ArrayLike) -> FloatArray:
        """Fit on ``y`` and return its standardised copy."""
        return self.fit(y).transform(y)

    def inverse_transform(self, y: ArrayLike) -> FloatArray:
        """Map standardised predictions back to original units."""
        if not self._fitted:
            raise NotFittedError(
                "TargetScaler.inverse_transform called before fit"
            )
        return check_1d("y", y) * self._scale + self._mean
