"""Statistical robustness layer: robust gating, streaming conformal
intervals, and distributional outputs.

The reliability package (:mod:`repro.reliability`) is *mechanical*: it
repairs NaN, rolls back diverged models, scrubs flipped bits.  This
package makes the stack *statistical* — it models what normal data looks
like and acts on departures from it:

* :mod:`~repro.robust.moments` — :class:`RobustMomentTracker`, streaming
  MinCovDet-style robust mean/covariance with Mahalanobis scoring and
  degenerate-covariance (null-space) handling;
* :mod:`~repro.robust.gate` — :class:`MahalanobisGate`, per-row leverage
  (``d_x``) and studentised-residual (``d_r``) gating over joint
  ``[x, y]`` moments, wired into
  :class:`~repro.reliability.guards.InputGuard` as the ``mahalanobis``
  guard policy;
* :mod:`~repro.robust.conformal` — :class:`AdaptiveConformal`,
  rolling-quantile conformal calibration over prequential residuals
  (checkpointable; optional adaptive-alpha correction);
* :mod:`~repro.robust.distribution` — mixture moments over the k
  soft-cluster responsibilities, powering
  :meth:`MultiModelRegHD.predict_dist`.

All covariance/Mahalanobis arithmetic in the repository lives here — a
repo-consistency test bans ad-hoc clones elsewhere.
"""

from repro.robust.conformal import (
    AdaptiveConformal,
    PredictionInterval,
    conformal_quantile,
)
from repro.robust.distribution import DistributionalPrediction, mixture_moments
from repro.robust.gate import GateScores, MahalanobisGate
from repro.robust.moments import (
    RobustMomentTracker,
    chi2_quantile,
    clipped_eigh,
    mahalanobis2_from,
    normal_quantile,
)

__all__ = [
    "AdaptiveConformal",
    "DistributionalPrediction",
    "GateScores",
    "MahalanobisGate",
    "PredictionInterval",
    "RobustMomentTracker",
    "chi2_quantile",
    "clipped_eigh",
    "conformal_quantile",
    "mahalanobis2_from",
    "mixture_moments",
    "normal_quantile",
]
