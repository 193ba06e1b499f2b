"""Streaming robust mean/covariance estimation and Mahalanobis scoring.

The salad pipeline (SNIPPETS.md §1) fits a :class:`MinCovDet` estimator
per batch and scores leverage ``d_x`` and residual ``d_r`` Mahalanobis
distances against it.  A streaming learner cannot refit from scratch on
every batch, so :class:`RobustMomentTracker` keeps the two MCD
ingredients incrementally:

* **weighted streaming moments** — mean and covariance are maintained
  with Chan-style weighted merges (a rank-one update per merged batch),
  optionally with exponential decay so the estimate follows drift;
* **MCD-style reweighting** — rows are scored against the *current*
  estimate first and rows beyond a chi-square cutoff get weight zero, so
  gross outliers never enter the moments they would need to corrupt in
  order to hide.

Degenerate covariances are first-class: the precision matrix is a
clipped-eigenvalue pseudo-inverse, and deviations inside the null space
(a "constant" feature suddenly moving) score as infinitely surprising
rather than invisibly zero.

Everything here is pure numpy — no SciPy/scikit-learn dependency — so
the chi-square and normal quantiles ship as closed-form approximations
(Wilson-Hilferty and Acklam), accurate to ~1e-3 in the tail regions the
gates use.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ConfigurationError
from repro.types import ArrayLike, FloatArray

__all__ = [
    "RobustMomentTracker",
    "chi2_quantile",
    "clipped_eigh",
    "clipped_inverse",
    "mahalanobis2_from",
    "normal_quantile",
]

#: relative eigenvalue cutoff below which a covariance direction is
#: treated as degenerate (null space) rather than inverted.
EIG_RTOL = 1e-10


def clipped_eigh(cov: FloatArray) -> tuple[FloatArray, FloatArray, np.ndarray]:
    """Eigendecompose a covariance, flagging the invertible directions.

    Returns ``(eigvals, eigvecs, kept)`` where ``kept`` marks eigenvalues
    above the relative floor — the directions a pseudo-inverse may
    invert.  The symmetrisation makes the decomposition safe for
    accumulated floating-point asymmetry.
    """
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
    floor = max(float(eigvals.max()), 0.0) * EIG_RTOL
    kept = eigvals > max(floor, np.finfo(np.float64).tiny)
    return eigvals, eigvecs, kept


def clipped_inverse(eigvals: FloatArray, kept: np.ndarray) -> FloatArray:
    """The pseudo-inverse spectrum of a :func:`clipped_eigh` result:
    ``1 / eigval`` on the kept directions, 0 on the null space."""
    return np.where(kept, 1.0 / np.where(kept, eigvals, 1.0), 0.0)


def mahalanobis2_from(
    eigvals: FloatArray,
    eigvecs: FloatArray,
    kept: np.ndarray,
    delta: FloatArray,
    *,
    inv: FloatArray | None = None,
) -> FloatArray:
    """Squared Mahalanobis distances of centred rows ``delta``.

    Uses the clipped-eigenvalue pseudo-inverse described by
    :func:`clipped_eigh`; callers scoring many batches against one
    estimate pass its :func:`clipped_inverse` as ``inv``.  Deviation
    *inside the null space* of a singular covariance (a direction with
    zero observed variance) scores ``inf``: the estimate has never seen
    movement there, so any movement is maximally surprising.
    """
    proj = delta @ eigvecs  # coordinates in the eigenbasis
    if inv is None:
        inv = clipped_inverse(eigvals, kept)
    d2 = (proj**2 * inv).sum(axis=1)
    if not kept.all():
        null2 = (proj**2 * ~kept).sum(axis=1)
        scale = max(float(eigvals.max()), 1.0)
        d2 = np.where(null2 > scale * 1e-12, np.inf, d2)
    return d2

# Acklam's rational approximation of the standard normal quantile.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)


def normal_quantile(p: float) -> float:
    """Standard-normal quantile ``Phi^{-1}(p)`` (Acklam approximation).

    Absolute error below 1.2e-9 over (0, 1); the endpoints map to
    ``-inf``/``inf``.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return float("-inf")
    if p == 1.0:
        return float("inf")
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (
        ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
    ) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def chi2_quantile(p: float, k: int) -> float:
    """Chi-square quantile with ``k`` degrees of freedom.

    Wilson-Hilferty: a chi-square variable over its dof is approximately
    the cube of a normal — accurate to a few parts in a thousand for the
    upper-tail cutoffs the gates use (p in [0.9, 0.999], k >= 1).
    """
    if k < 1:
        raise ConfigurationError(f"degrees of freedom must be >= 1, got {k}")
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"p must be in (0, 1), got {p}")
    z = normal_quantile(p)
    h = 2.0 / (9.0 * k)
    return float(k * (1.0 - h + z * math.sqrt(h)) ** 3)


class RobustMomentTracker:
    """Streaming robust mean/covariance with Mahalanobis scoring.

    Parameters
    ----------
    dim:
        Dimensionality of the tracked vectors.
    reweight_p:
        MCD-style reweighting cutoff: once warm, rows whose squared
        Mahalanobis distance exceeds ``chi2_quantile(reweight_p, dim)``
        get weight zero in the moment update.
    warmup:
        Minimum accumulated weight before scoring activates; during
        warmup every row is absorbed unweighted (there is no trustworthy
        estimate to score against yet).
    decay:
        Per-merge exponential forgetting of the accumulated moments in
        (0, 1]; 1 keeps the full history (stationary estimate).
    """

    def __init__(
        self,
        dim: int,
        *,
        reweight_p: float = 0.975,
        warmup: int = 32,
        decay: float = 1.0,
    ):
        if dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {dim}")
        if not 0.0 < reweight_p < 1.0:
            raise ConfigurationError(
                f"reweight_p must be in (0, 1), got {reweight_p}"
            )
        if warmup < 1:
            raise ConfigurationError(f"warmup must be >= 1, got {warmup}")
        if not 0.0 < decay <= 1.0:
            raise ConfigurationError(f"decay must be in (0, 1], got {decay}")
        self.dim = int(dim)
        self.reweight_p = float(reweight_p)
        self.warmup = int(warmup)
        self.decay = float(decay)
        self.cutoff2 = chi2_quantile(self.reweight_p, self.dim)
        self.weight = 0.0  # accumulated (decayed) row weight
        self.n_seen = 0  # raw rows offered, for bookkeeping
        self.n_rejected = 0  # rows excluded by the reweighting step
        self.mean = np.zeros(self.dim)
        self._m2 = np.zeros((self.dim, self.dim))  # weighted scatter
        #: bumped whenever the moments change (an update that absorbs
        #: weight, or a restored state); caches of derived values key on it
        self.version = 0
        self._eig: tuple[FloatArray, FloatArray, np.ndarray] | None = None

    # -- properties ---------------------------------------------------------

    @property
    def warm(self) -> bool:
        """Whether enough weight has accumulated for scoring."""
        return self.weight >= self.warmup

    @property
    def covariance(self) -> FloatArray:
        """The current (weighted) covariance estimate, ``(dim, dim)``."""
        if self.weight <= 0:
            return np.zeros((self.dim, self.dim))
        return self._m2 / self.weight

    # -- update -------------------------------------------------------------

    def _check_rows(self, X: ArrayLike) -> FloatArray:
        arr = np.asarray(X, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise ConfigurationError(
                f"expected rows of shape (n, {self.dim}), got {arr.shape}"
            )
        return arr

    def update(self, X: ArrayLike, weights: ArrayLike | None = None) -> None:
        """Merge a batch of rows into the moments (Chan weighted merge).

        ``weights`` defaults to all-ones; zero-weight rows are ignored.
        The merge is a single rank-one correction on top of the batch
        scatter, so cost is ``O(n·dim + dim^2)`` per batch.
        """
        X_arr = self._check_rows(X)
        n = len(X_arr)
        self.n_seen += n
        if weights is None:
            w = np.ones(n)
        else:
            w = np.asarray(weights, dtype=np.float64).ravel()
            if len(w) != n:
                raise ConfigurationError(
                    f"weights length {len(w)} != rows {n}"
                )
        w_sum = float(w.sum())
        if w_sum <= 0.0:
            return
        batch_mean = (w[:, np.newaxis] * X_arr).sum(axis=0) / w_sum
        centered = X_arr - batch_mean
        batch_m2 = (w[:, np.newaxis] * centered).T @ centered

        prior = self.decay * self.weight
        total = prior + w_sum
        delta = batch_mean - self.mean
        self._m2 = (
            self.decay * self._m2
            + batch_m2
            + (prior * w_sum / total) * np.outer(delta, delta)
        )
        self.mean = self.mean + (w_sum / total) * delta
        self.weight = total
        self.version += 1
        self._eig = None  # precision is stale

    # -- scoring ------------------------------------------------------------

    def _eigh(self) -> tuple[FloatArray, FloatArray, np.ndarray]:
        if self._eig is None:
            self._eig = clipped_eigh(self.covariance)
        return self._eig

    def mahalanobis2(self, X: ArrayLike) -> FloatArray:
        """Squared Mahalanobis distance of each row to the current mean.

        Uses the clipped-eigenvalue pseudo-inverse of the covariance
        (:func:`mahalanobis2_from`); null-space deviations score ``inf``.
        Before any update the tracker has no geometry and scores 0.
        """
        X_arr = self._check_rows(X)
        if self.weight <= 0.0:
            return np.zeros(len(X_arr))
        eigvals, eigvecs, kept = self._eigh()
        return mahalanobis2_from(eigvals, eigvecs, kept, X_arr - self.mean)

    def mahalanobis(self, X: ArrayLike) -> FloatArray:
        """Mahalanobis distance (the square root of :meth:`mahalanobis2`)."""
        return np.sqrt(self.mahalanobis2(X))

    def score_and_update(self, X: ArrayLike) -> FloatArray:
        """MCD-style step: score rows, absorb only the inliers.

        Returns the squared distances computed *before* the update.  Rows
        beyond the chi-square cutoff get weight zero; during warmup every
        row is absorbed (scores are still returned for telemetry).
        """
        X_arr = self._check_rows(X)
        d2 = self.mahalanobis2(X_arr)
        if self.warm:
            keep = d2 <= self.cutoff2
            self.n_rejected += int((~keep).sum())
            self.update(X_arr, weights=keep.astype(np.float64))
        else:
            self.update(X_arr)
        return d2

    # -- state protocol ------------------------------------------------------

    def get_state(self) -> dict:
        """JSON-serialisable snapshot (checkpoint/restore support)."""
        return {
            "dim": self.dim,
            "reweight_p": self.reweight_p,
            "warmup": self.warmup,
            "decay": self.decay,
            "weight": self.weight,
            "n_seen": self.n_seen,
            "n_rejected": self.n_rejected,
            "mean": self.mean.tolist(),
            "m2": self._m2.tolist(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot (bit-exact moments)."""
        if int(state["dim"]) != self.dim:
            raise ConfigurationError(
                f"state dim {state['dim']} != tracker dim {self.dim}"
            )
        self.reweight_p = float(state["reweight_p"])
        self.warmup = int(state["warmup"])
        self.decay = float(state["decay"])
        self.cutoff2 = chi2_quantile(self.reweight_p, self.dim)
        self.weight = float(state["weight"])
        self.n_seen = int(state["n_seen"])
        self.n_rejected = int(state["n_rejected"])
        self.mean = np.asarray(state["mean"], dtype=np.float64)
        self._m2 = np.asarray(state["m2"], dtype=np.float64)
        self.version += 1
        self._eig = None

    @classmethod
    def from_state(cls, state: dict) -> "RobustMomentTracker":
        """Rebuild a tracker from a :meth:`get_state` snapshot."""
        tracker = cls(int(state["dim"]))
        tracker.set_state(state)
        return tracker

    def __repr__(self) -> str:
        return (
            f"RobustMomentTracker(dim={self.dim}, weight={self.weight:.1f}, "
            f"warm={self.warm}, rejected={self.n_rejected})"
        )
