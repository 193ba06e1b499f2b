"""Input sanitisation guards for streaming batches.

A deployed stream learner sees what real sensors emit: NaN from powered-
down channels, Inf from saturated ADCs, rows of the wrong width after a
firmware update, and occasional wild out-of-range values.  Unfiltered,
one NaN poisons every model hypervector it is bundled into — silently and
permanently.  :class:`InputGuard` runs ahead of ``predict``/``partial_fit``
and applies one of three policies per batch:

* ``raise``  — reject the batch with :class:`DataGuardError` (fail fast);
* ``repair`` — replace non-finite / out-of-range feature values with a
  fill value (or clip to range) and drop rows whose *target* is bad — a
  label cannot be invented;
* ``drop``   — drop every row containing any offending value;
* ``mahalanobis`` — drop structurally-bad rows like ``drop``, then pass
  the survivors through a :class:`~repro.robust.gate.MahalanobisGate`:
  rows whose leverage (``d_x``) or studentised residual (``d_r``)
  Mahalanobis score falls outside its chi-square envelope are dropped
  as *statistical* outliers — values that are perfectly finite but do
  not belong to the distribution the model is learning.

Structural problems (wrong rank, wrong feature count, non-numeric dtype)
always raise: no per-row policy can repair a batch the encoder cannot
even index.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, DataGuardError
from repro.robust.gate import GateScores, MahalanobisGate
from repro.telemetry import metrics as _metrics
from repro.types import ArrayLike, FloatArray

#: histogram bounds for Mahalanobis guard scores: the bulk of inlier
#: distances lands below ~4 for moderate dimensionality; outliers tail
#: off to the open-ended overflow bucket.
GUARD_SCORE_BUCKETS = (
    0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0,
)


class GuardPolicy(enum.Enum):
    """What to do with a batch that fails validation."""

    RAISE = "raise"
    REPAIR = "repair"
    DROP = "drop"
    MAHALANOBIS = "mahalanobis"


def coerce_policy(policy: "GuardPolicy | str") -> GuardPolicy:
    """Resolve a policy name, listing the valid ones on a miss."""
    try:
        return GuardPolicy(policy)
    except ValueError:
        valid = ", ".join(repr(p.value) for p in GuardPolicy)
        raise ConfigurationError(
            f"unknown guard policy {policy!r}; valid policies: {valid}"
        ) from None


@dataclass
class GuardReport:
    """What the guard saw and did to one batch."""

    n_rows_in: int
    n_rows_out: int
    n_repaired_values: int = 0
    n_dropped_rows: int = 0
    n_gated_rows: int = 0  # statistical outliers removed by the gate
    issues: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when the batch passed untouched."""
        return not self.issues


class InputGuard:
    """Validate and sanitise ``(X, y)`` batches before they reach a model.

    Parameters
    ----------
    in_features:
        Expected feature count; rows of any other width always raise.
    policy:
        A :class:`GuardPolicy` or its string value.
    value_range:
        Optional ``(low, high)`` plausibility range for feature values;
        violations are treated like non-finite values (repair mode clips
        to the range instead of filling).
    fill_value:
        Replacement for non-finite feature values under ``repair``.
    gate:
        Statistical gate used by the ``mahalanobis`` policy.  Defaults
        to a fresh :class:`~repro.robust.gate.MahalanobisGate` over
        ``in_features``; pass one explicitly to tune envelopes/warmup or
        to resume a checkpointed gate.

    ``total`` sums the row and value counts over every batch
    :meth:`check` counted; :meth:`screen` checks a batch without
    counting it there (a stream's reads, which no history report holds).
    Its ``issues`` list stays empty — the strings live only on each
    batch's own report — so a long-lived guard does not grow.
    """

    def __init__(
        self,
        in_features: int,
        *,
        policy: GuardPolicy | str = GuardPolicy.RAISE,
        value_range: tuple[float, float] | None = None,
        fill_value: float = 0.0,
        gate: MahalanobisGate | None = None,
    ):
        if in_features < 1:
            raise ConfigurationError(
                f"in_features must be >= 1, got {in_features}"
            )
        self.in_features = int(in_features)
        self.policy = coerce_policy(policy)
        if value_range is not None:
            low, high = float(value_range[0]), float(value_range[1])
            if not low < high:
                raise ConfigurationError(
                    f"value_range must satisfy low < high, got {value_range}"
                )
            value_range = (low, high)
        self.value_range = value_range
        self.fill_value = float(fill_value)
        if gate is not None and gate.in_features != self.in_features:
            raise ConfigurationError(
                f"gate expects {gate.in_features} features, guard expects "
                f"{self.in_features}"
            )
        if gate is None and self.policy is GuardPolicy.MAHALANOBIS:
            gate = MahalanobisGate(self.in_features)
        self.gate = gate
        self.total = GuardReport(n_rows_in=0, n_rows_out=0)

    # -- structural checks: never repairable -------------------------------

    def _as_float_2d(self, X: ArrayLike) -> FloatArray:
        try:
            arr = np.asarray(X, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataGuardError(
                f"X is not convertible to a float array: {exc}"
            ) from exc
        if arr.ndim != 2:
            raise DataGuardError(f"X must be 2-d, got shape {arr.shape}")
        if arr.shape[1] != self.in_features:
            raise DataGuardError(
                f"X has {arr.shape[1]} features, guard expects "
                f"{self.in_features}"
            )
        return arr

    def _as_float_1d(self, y: ArrayLike, n_rows: int) -> FloatArray:
        try:
            arr = np.asarray(y, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataGuardError(
                f"y is not convertible to a float array: {exc}"
            ) from exc
        if arr.ndim != 1:
            raise DataGuardError(f"y must be 1-d, got shape {arr.shape}")
        if len(arr) != n_rows:
            raise DataGuardError(
                f"X has {n_rows} rows but y has {len(arr)}"
            )
        return arr

    # -- value checks: policy applies --------------------------------------

    def check(
        self, X: ArrayLike, y: ArrayLike | None = None
    ) -> tuple[FloatArray, FloatArray | None, GuardReport]:
        """Validate one batch; returns sanitised ``(X, y, report)``.

        ``y`` may be omitted for inference-only batches.  Copies are made
        only when a repair or drop actually happens, and per-row masks
        only for a batch that fails the one whole-batch value test.  The
        batch's counts are added to :attr:`total`.
        """
        return self._check(X, y, count=True)

    def screen(
        self, X: ArrayLike, y: ArrayLike | None = None
    ) -> tuple[FloatArray, FloatArray | None, GuardReport]:
        """:meth:`check` one batch without adding it to :attr:`total`.

        Every policy, the gate and the ``reghd_guard_*`` metrics apply as
        in :meth:`check`; a stream screens its reads this way.
        """
        return self._check(X, y, count=False)

    def _check(
        self, X: ArrayLike, y: ArrayLike | None, *, count: bool
    ) -> tuple[FloatArray, FloatArray | None, GuardReport]:
        X_arr = self._as_float_2d(X)
        n_rows = len(X_arr)
        y_arr = None if y is None else self._as_float_1d(y, n_rows)
        report = GuardReport(n_rows_in=n_rows, n_rows_out=n_rows)
        if self._admits(X_arr, y_arr):
            # One test for the whole batch found nothing to mask.
            return self._finish(
                X_arr, y_arr, report, repaired=False, count=count
            )

        bad_X = ~np.isfinite(X_arr)
        if self.value_range is not None:
            low, high = self.value_range
            with np.errstate(invalid="ignore"):
                out_of_range = np.isfinite(X_arr) & (
                    (X_arr < low) | (X_arr > high)
                )
        else:
            out_of_range = np.zeros_like(bad_X)
        bad_y = (
            np.zeros(n_rows, dtype=bool)
            if y_arr is None
            else ~np.isfinite(y_arr)
        )

        if bad_X.any():
            report.issues.append(
                f"{int(bad_X.sum())} non-finite feature value(s)"
            )
        if out_of_range.any():
            report.issues.append(
                f"{int(out_of_range.sum())} out-of-range feature value(s)"
            )
        if bad_y.any():
            report.issues.append(
                f"{int(bad_y.sum())} non-finite target value(s)"
            )

        if self.policy is GuardPolicy.RAISE:
            self._emit(report, "rejected")
            raise DataGuardError(
                "input batch rejected: " + "; ".join(report.issues)
            )

        if self.policy is GuardPolicy.REPAIR:
            X_arr = X_arr.copy()
            X_arr[bad_X] = self.fill_value
            if self.value_range is not None:
                low, high = self.value_range
                X_arr = np.clip(X_arr, low, high)
            report.n_repaired_values = int(bad_X.sum() + out_of_range.sum())
            keep = ~bad_y  # a missing label cannot be repaired
        else:  # DROP and MAHALANOBIS share row-drop value semantics
            keep = ~(bad_X.any(axis=1) | out_of_range.any(axis=1) | bad_y)

        if not keep.all():
            X_arr = X_arr[keep]
            y_arr = None if y_arr is None else y_arr[keep]
            report.n_dropped_rows = int(n_rows - keep.sum())
        return self._finish(
            X_arr, y_arr, report,
            repaired=self.policy is GuardPolicy.REPAIR,
            count=count,
        )

    def _admits(self, X: FloatArray, y: FloatArray | None) -> bool:
        """Whether every value passes: finite, and inside ``value_range``
        when one is set.  A batch that passes needs no per-row mask."""
        if not np.isfinite(X).all():
            return False
        if y is not None and not np.isfinite(y).all():
            return False
        if self.value_range is None or not X.size:
            return True
        low, high = self.value_range
        return bool(X.min() >= low and X.max() <= high)

    def _finish(
        self,
        X_arr: FloatArray,
        y_arr: FloatArray | None,
        report: GuardReport,
        *,
        repaired: bool,
        count: bool = True,
    ) -> tuple[FloatArray, FloatArray | None, GuardReport]:
        """Gate the value-clean rows (``mahalanobis``), then report the
        batch, and add it to :attr:`total` when ``count``."""
        # Statistical gating runs on the value-clean survivors: finite
        # rows whose leverage / residual score falls outside the gate's
        # chi-square envelope are removed as distributional outliers.
        scores = None
        if self.policy is GuardPolicy.MAHALANOBIS and len(X_arr):
            scores = self.gate.filter(X_arr, y_arr)
            if scores.n_gated:
                X_arr = X_arr[scores.keep]
                y_arr = None if y_arr is None else y_arr[scores.keep]
                report.n_gated_rows = scores.n_gated
                report.issues.append(
                    f"{scores.n_gated} statistical outlier row(s) gated"
                )

        report.n_rows_out = len(X_arr)
        if count:
            self.accumulate(report)
        if repaired:
            outcome = "repaired"
        elif report.n_gated_rows:
            outcome = "gated"
        elif report.n_dropped_rows:
            outcome = "dropped"
        else:
            outcome = "clean"
        self._emit(report, outcome, scores=scores)
        return X_arr, y_arr, report

    def accumulate(self, report: GuardReport) -> None:
        """Add one batch's counts to :attr:`total`."""
        self.total.n_rows_in += report.n_rows_in
        self.total.n_rows_out += report.n_rows_out
        self.total.n_repaired_values += report.n_repaired_values
        self.total.n_dropped_rows += report.n_dropped_rows
        self.total.n_gated_rows += report.n_gated_rows

    def _emit(
        self,
        report: GuardReport,
        outcome: str,
        scores: GateScores | None = None,
    ) -> None:
        """Count the batch outcome; dirty batches also log a structured
        event (issues joined into one string) for the audit trail.  When
        the statistical gate scored the batch, the per-row leverage /
        residual distances land in the ``reghd_guard_score`` histograms
        and gated contamination is logged as its own event."""
        registry = _metrics.active()
        if registry is None:
            return
        registry.counter(
            "reghd_guard_batches_total", outcome=outcome
        ).inc()
        if report.n_repaired_values:
            registry.counter("reghd_guard_values_repaired_total").inc(
                report.n_repaired_values
            )
        if report.n_dropped_rows:
            registry.counter("reghd_guard_rows_dropped_total").inc(
                report.n_dropped_rows
            )
        if report.n_gated_rows:
            registry.counter("reghd_guard_rows_gated_total").inc(
                report.n_gated_rows
            )
        if scores is not None:
            hist = registry.histogram(
                "reghd_guard_score",
                buckets=GUARD_SCORE_BUCKETS,
                kind="leverage",
            )
            for value in scores.leverage:
                hist.observe(float(value))
            if scores.residual is not None:
                hist = registry.histogram(
                    "reghd_guard_score",
                    buckets=GUARD_SCORE_BUCKETS,
                    kind="residual",
                )
                for value in scores.residual:
                    hist.observe(float(value))
            if report.n_gated_rows:
                finite_lev = scores.leverage[np.isfinite(scores.leverage)]
                registry.record_event(
                    "guard_contamination",
                    n_rows_in=report.n_rows_in,
                    n_gated=report.n_gated_rows,
                    max_leverage=(
                        float(finite_lev.max()) if len(finite_lev) else None
                    ),
                )
        if report.issues:
            registry.record_event(
                "guard_batch",
                outcome=outcome,
                n_rows_in=report.n_rows_in,
                n_rows_out=report.n_rows_out,
                issues="; ".join(report.issues),
            )
