"""Robust covariance gating: leverage and residual Mahalanobis scores.

:class:`MahalanobisGate` tracks the *joint* robust moments of
``z = [x, y]`` with one :class:`~repro.robust.moments.RobustMomentTracker`
and derives the two salad-style scores from the partitioned covariance:

* **leverage** ``d_x`` — Mahalanobis distance of the feature vector
  under the marginal ``Sigma_xx``: how unusual is this input?
* **residual** ``d_r`` — the studentised residual of the implied linear
  regression ``y ≈ alpha + beta·x`` with ``beta = Sigma_xx^+ Sigma_xy``
  and noise variance ``sigma_e = Sigma_yy - Sigma_yx beta``: how unusual
  is this *target given the input*?

A row is admitted only when both scores sit inside their chi-square
envelopes.  Admitted rows update the joint moments (the tracker applies
its own MCD-style reweighting on top), so the estimate stays clean under
sustained contamination instead of being dragged toward it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.robust.moments import (
    RobustMomentTracker,
    chi2_quantile,
    clipped_eigh,
    clipped_inverse,
    mahalanobis2_from,
)
from repro.types import ArrayLike, FloatArray

__all__ = ["GateScores", "MahalanobisGate"]


class _Partition(NamedTuple):
    """The joint moments split into what the two scores read: the
    means, the clipped eigendecomposition of ``Sigma_xx`` with its
    pseudo-inverse spectrum, the regression ``beta`` and the noise
    variance ``sigma_e``."""

    mu_x: FloatArray
    mu_y: float
    eigvals: FloatArray
    eigvecs: FloatArray
    kept: np.ndarray
    inv: FloatArray
    beta: FloatArray
    sigma_e: float


class GateScores:
    """Per-row gate outcome: keep mask plus both Mahalanobis scores.

    ``residual`` is None for inference-only batches (no targets to
    studentise).  During warmup ``keep`` is all-True and the scores are
    whatever the immature estimate produced — callers should treat them
    as telemetry, not verdicts.
    """

    __slots__ = ("keep", "leverage", "residual", "active")

    def __init__(
        self,
        keep: np.ndarray,
        leverage: FloatArray,
        residual: FloatArray | None,
        active: bool,
    ):
        self.keep = keep
        self.leverage = leverage
        self.residual = residual
        self.active = active

    @property
    def n_gated(self) -> int:
        """Rows the gate excluded."""
        return int((~self.keep).sum())


class MahalanobisGate:
    """Statistical input gate over streaming ``(X, y)`` batches.

    Parameters
    ----------
    in_features:
        Feature dimensionality of ``X``.
    leverage_p / residual_p:
        Chi-square envelope probabilities for the leverage (``d_x``,
        ``in_features`` dof) and residual (``d_r``, 1 dof) cutoffs.
    warmup:
        Rows absorbed before the gate starts excluding anything.
    decay:
        Exponential forgetting of the joint moments (1 = stationary).
    """

    def __init__(
        self,
        in_features: int,
        *,
        leverage_p: float = 0.995,
        residual_p: float = 0.995,
        warmup: int = 64,
        decay: float = 1.0,
    ):
        if in_features < 1:
            raise ConfigurationError(
                f"in_features must be >= 1, got {in_features}"
            )
        for name, p in (("leverage_p", leverage_p), ("residual_p", residual_p)):
            if not 0.0 < p < 1.0:
                raise ConfigurationError(f"{name} must be in (0, 1), got {p}")
        self.in_features = int(in_features)
        self.leverage_p = float(leverage_p)
        self.residual_p = float(residual_p)
        self.leverage_cut2 = chi2_quantile(leverage_p, in_features)
        self.residual_cut2 = chi2_quantile(residual_p, 1)
        self.tracker = RobustMomentTracker(
            in_features + 1, warmup=warmup, decay=decay
        )
        self.n_gated = 0
        #: ``(tracker.version, partition)`` of the last derivation
        self._derived: tuple[int, _Partition] | None = None

    # -- score derivation ----------------------------------------------------

    def _partition(self) -> _Partition:
        """The partitioned joint moments every score reads.

        Derived once per state of the tracker (keyed on its
        :attr:`~repro.robust.moments.RobustMomentTracker.version`) and
        reused by every score until the moments move: a stream reads
        many batches per update.
        """
        version = self.tracker.version
        if self._derived is None or self._derived[0] != version:
            self._derived = (version, self._derive())
        return self._derived[1]

    def _derive(self) -> _Partition:
        d = self.in_features
        mu = self.tracker.mean
        cov = self.tracker.covariance
        sigma_xx = cov[:d, :d]
        sigma_xy = cov[:d, d]
        sigma_yy = float(cov[d, d])
        # Clipped-eigenvalue pseudo-inverse of Sigma_xx (same policy as
        # the tracker's own scoring, kept local to the x-marginal).
        eigvals, eigvecs, kept = clipped_eigh(sigma_xx)
        inv = clipped_inverse(eigvals, kept)
        beta = eigvecs @ (inv * (eigvecs.T @ sigma_xy))
        sigma_e = sigma_yy - float(sigma_xy @ beta)
        return _Partition(
            mu[:d], mu[d], eigvals, eigvecs, kept, inv, beta, max(sigma_e, 0.0)
        )

    def leverage2(self, X: ArrayLike) -> FloatArray:
        """Squared leverage ``d_x^2`` under the marginal ``Sigma_xx``."""
        X_arr = np.asarray(X, dtype=np.float64)
        d = self.in_features
        if X_arr.ndim != 2 or X_arr.shape[1] != d:
            raise ConfigurationError(
                f"expected rows of shape (n, {d}), got {X_arr.shape}"
            )
        if self.tracker.weight <= 0.0:
            return np.zeros(len(X_arr))
        p = self._partition()
        return mahalanobis2_from(
            p.eigvals, p.eigvecs, p.kept, X_arr - p.mu_x, inv=p.inv
        )

    def residual2(self, X: ArrayLike, y: ArrayLike) -> FloatArray:
        """Squared studentised residual ``d_r^2`` of ``y`` given ``x``."""
        X_arr = np.asarray(X, dtype=np.float64)
        y_arr = np.asarray(y, dtype=np.float64).ravel()
        p = self._partition()
        r = (y_arr - p.mu_y) - (X_arr - p.mu_x) @ p.beta
        if p.sigma_e <= np.finfo(np.float64).tiny:
            # Degenerate noise estimate: any non-zero residual is
            # infinitely surprising, zero residuals are unremarkable.
            return np.where(np.abs(r) > 1e-12, np.inf, 0.0)
        return r**2 / p.sigma_e

    # -- gating -------------------------------------------------------------

    def score(self, X: ArrayLike, y: ArrayLike | None = None) -> GateScores:
        """Score one batch without updating the moments."""
        X_arr = np.asarray(X, dtype=np.float64)
        active = self.tracker.warm
        lev2 = self.leverage2(X_arr)
        res2 = None if y is None else self.residual2(X_arr, y)
        if not active:
            keep = np.ones(len(X_arr), dtype=bool)
        else:
            keep = lev2 <= self.leverage_cut2
            if res2 is not None:
                keep &= res2 <= self.residual_cut2
        return GateScores(
            keep=keep,
            leverage=np.sqrt(lev2),
            residual=None if res2 is None else np.sqrt(res2),
            active=active,
        )

    def filter(self, X: ArrayLike, y: ArrayLike | None = None) -> GateScores:
        """Score one batch and absorb the admitted rows into the moments.

        Inference-only batches (``y is None``) are scored on leverage but
        never update the joint moments — a half-observed row has no place
        in a joint ``[x, y]`` estimate.
        """
        scores = self.score(X, y)
        if y is not None:
            X_arr = np.asarray(X, dtype=np.float64)
            y_arr = np.asarray(y, dtype=np.float64).ravel()
            z = np.hstack([X_arr, y_arr[:, np.newaxis]])
            self.tracker.update(z, weights=scores.keep.astype(np.float64))
        self.n_gated += scores.n_gated
        return scores

    # -- state protocol ------------------------------------------------------

    def get_state(self) -> dict:
        """JSON-serialisable snapshot (checkpoint/restore support)."""
        return {
            "in_features": self.in_features,
            "leverage_p": self.leverage_p,
            "residual_p": self.residual_p,
            "n_gated": self.n_gated,
            "tracker": self.tracker.get_state(),
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot."""
        if int(state["in_features"]) != self.in_features:
            raise ConfigurationError(
                f"state in_features {state['in_features']} != gate "
                f"in_features {self.in_features}"
            )
        self.leverage_p = float(state["leverage_p"])
        self.residual_p = float(state["residual_p"])
        self.leverage_cut2 = chi2_quantile(self.leverage_p, self.in_features)
        self.residual_cut2 = chi2_quantile(self.residual_p, 1)
        self.n_gated = int(state["n_gated"])
        self.tracker.set_state(state["tracker"])

    @classmethod
    def from_state(cls, state: dict) -> "MahalanobisGate":
        """Rebuild a gate from a :meth:`get_state` snapshot."""
        gate = cls(int(state["in_features"]))
        gate.set_state(state)
        return gate

    def __repr__(self) -> str:
        return (
            f"MahalanobisGate(in_features={self.in_features}, "
            f"warm={self.tracker.warm}, gated={self.n_gated})"
        )
