"""Streaming RegHD: prequential learning with forgetting and drift handling.

The paper targets IoT devices that learn from unbounded sensor streams.
This module packages the pieces a deployed streaming learner needs around
:class:`MultiModelRegHD`:

* **prequential evaluation** — every arriving batch is predicted *before*
  it is trained on, so the reported error is honest online error;
* **exponential forgetting** — model hypervectors decay by a factor per
  batch, bounding the influence horizon of stale data (a bundle is a sum,
  so scaling it down-weights the past without touching the encoder);
* **drift detection** — a Page-Hinkley test on the prequential error; on
  detection the model hypervectors are shrunk hard so the learner re-adapts
  quickly instead of averaging two incompatible concepts.
"""

from __future__ import annotations

import dataclasses
import enum
import pathlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.encoding.base import Encoder
from repro.exceptions import ConfigurationError, NotFittedError
from repro.metrics import mean_squared_error
from repro.robust.conformal import AdaptiveConformal, PredictionInterval
from repro.telemetry import metrics as _metrics
from repro.telemetry import tracing as _tracing
from repro.telemetry.spans import span
from repro.types import ArrayLike, FloatArray
from repro.utils.validation import check_1d, check_2d, check_matching_lengths


class PageHinkley:
    """Page-Hinkley change detector on a stream of error magnitudes.

    Standard Page-Hinkley: signals drift when the cumulative deviation of
    the error above its incremental mean exceeds ``threshold``.  ``delta``
    is the magnitude of tolerated change per observation.
    """

    def __init__(self, *, delta: float = 0.01, threshold: float = 2.0):
        if delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {delta}")
        if threshold <= 0:
            raise ConfigurationError(
                f"threshold must be > 0, got {threshold}"
            )
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.reset()

    def reset(self) -> None:
        """Clear all detector state (called automatically after a drift)."""
        self._mean = 0.0
        self._count = 0
        self._cumulative = 0.0
        self._minimum = 0.0

    def update(self, error: float) -> bool:
        """Feed one error observation; returns True when drift is detected."""
        if error < 0:
            raise ConfigurationError(f"error must be >= 0, got {error}")
        self._count += 1
        # Incremental mean of all errors since the last reset.
        self._mean += (error - self._mean) / self._count
        self._cumulative += error - self._mean - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        if self._cumulative - self._minimum > self.threshold:
            self.reset()
            return True
        return False

    def get_state(self) -> dict:
        """JSON-serialisable snapshot of the detector internals.

        Together with :meth:`set_state` this lets a checkpoint capture the
        detector mid-stream so recovery resumes bit-exactly.
        """
        return {
            "mean": self._mean,
            "count": self._count,
            "cumulative": self._cumulative,
            "minimum": self._minimum,
        }

    def set_state(self, state: dict) -> None:
        """Restore internals captured by :meth:`get_state`."""
        self._mean = float(state["mean"])
        self._count = int(state["count"])
        self._cumulative = float(state["cumulative"])
        self._minimum = float(state["minimum"])


@dataclass
class StreamBatchReport:
    """Prequential record for one arriving batch."""

    batch: int
    prequential_mse: float | None  # None for the very first batch
    drift_detected: bool


_BASE_REPORT_FIELDS = ("batch", "prequential_mse", "drift_detected")


def _encode_value(value: object) -> object:
    """JSON-safe encoding of a report field (recursive, type-driven).

    Dataclasses become plain dicts, enums their values, paths strings and
    numpy scalars Python scalars — everything the reliability-extended
    reports carry, without this module importing the reliability package.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, pathlib.Path):
        return str(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def _decode_report(data: dict) -> StreamBatchReport:
    """Rebuild a report from :func:`_encode_value` output.

    Plain prequential reports decode to :class:`StreamBatchReport`; any
    extra keys mark a reliability-extended report, whose classes are
    imported lazily (the reliability package imports this module, so the
    import must not run at module level).
    """
    base = {
        "batch": int(data["batch"]),
        "prequential_mse": (
            None
            if data["prequential_mse"] is None
            else float(data["prequential_mse"])
        ),
        "drift_detected": bool(data["drift_detected"]),
    }
    extra = {k: v for k, v in data.items() if k not in _BASE_REPORT_FIELDS}
    if not extra:
        return StreamBatchReport(**base)
    from repro.reliability.guards import GuardReport
    from repro.reliability.resilient import ResilientBatchReport
    from repro.reliability.scrub import ScrubReport
    from repro.reliability.watchdog import HealthState

    health = extra.get("health")
    guard = extra.get("guard")
    scrub = extra.get("scrub")
    return ResilientBatchReport(
        **base,
        health=None if health is None else HealthState(health),
        guard=None if guard is None else GuardReport(**guard),
        scrub=None if scrub is None else ScrubReport(**scrub),
        rolled_back=bool(extra.get("rolled_back", False)),
        checkpointed=bool(extra.get("checkpointed", False)),
        skipped=bool(extra.get("skipped", False)),
        restored_checkpoint=extra.get("restored_checkpoint"),
        trigger_error=(
            None
            if extra.get("trigger_error") is None
            else float(extra["trigger_error"])
        ),
    )


class StreamHistory:
    """Accumulated reports of a streaming run.

    ``max_reports`` bounds memory on unbounded streams: when set, only the
    newest ``max_reports`` reports are retained (deque-backed) and
    :attr:`drift_events` / :meth:`mse_curve` operate over that window.
    ``None`` keeps everything, matching the original behaviour.
    """

    def __init__(self, max_reports: int | None = None):
        if max_reports is not None and max_reports < 1:
            raise ConfigurationError(
                f"max_reports must be >= 1 or None, got {max_reports}"
            )
        self.max_reports = max_reports
        self.reports: deque[StreamBatchReport] = deque(maxlen=max_reports)

    @property
    def n_batches(self) -> int:
        """Number of *retained* reports (== processed batches when unbounded)."""
        return len(self.reports)

    @property
    def drift_events(self) -> list[int]:
        """Batch indices where drift fired, over the retained window."""
        return [r.batch for r in self.reports if r.drift_detected]

    def mse_curve(self) -> FloatArray:
        """Prequential MSE per batch (NaN for the untrained first batch)."""
        return np.array(
            [
                np.nan if r.prequential_mse is None else r.prequential_mse
                for r in self.reports
            ]
        )

    # -- checkpointable state ----------------------------------------------

    def get_state(self) -> dict:
        """JSON-serialisable snapshot of the retained reports.

        Reliability-extended reports (guard/scrub outcomes, rollback
        records with their restored checkpoint id and triggering error)
        serialise alongside the plain prequential fields, so a restored
        stream keeps its full per-batch audit trail.
        """
        return {
            "max_reports": self.max_reports,
            "reports": [_encode_value(r) for r in self.reports],
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`get_state`."""
        self.max_reports = state.get("max_reports")
        self.reports = deque(
            (_decode_report(r) for r in state.get("reports", [])),
            maxlen=self.max_reports,
        )


class StreamingRegHD:
    """Drift-aware streaming wrapper around :class:`MultiModelRegHD`.

    Parameters
    ----------
    in_features, config, encoder:
        Forwarded to the underlying model.
    forgetting:
        Per-batch decay of the model hypervectors in (0, 1]; 1 disables
        forgetting.
    detector:
        Optional :class:`PageHinkley` instance; None disables detection.
    drift_shrink:
        Factor applied to the model hypervectors when drift fires (0
        fully resets them; clusters are kept — the input distribution
        geometry usually survives a concept change in the target).
    max_history:
        Optional bound on the number of retained
        :class:`StreamBatchReport` entries (see :class:`StreamHistory`);
        ``None`` retains the full run.
    conformal:
        Optional :class:`~repro.robust.conformal.AdaptiveConformal`
        calibrator.  When present, every prequential batch feeds its
        honest residuals into the calibrator and
        :meth:`predict_interval` issues always-current conformal bands.
    """

    def __init__(
        self,
        in_features: int,
        config: RegHDConfig | None = None,
        *,
        forgetting: float = 0.995,
        detector: PageHinkley | None = None,
        drift_shrink: float = 0.1,
        encoder: Encoder | None = None,
        max_history: int | None = None,
        conformal: AdaptiveConformal | None = None,
    ):
        if not 0 < forgetting <= 1:
            raise ConfigurationError(
                f"forgetting must be in (0, 1], got {forgetting}"
            )
        if not 0 <= drift_shrink <= 1:
            raise ConfigurationError(
                f"drift_shrink must be in [0, 1], got {drift_shrink}"
            )
        self.model = MultiModelRegHD(in_features, config, encoder=encoder)
        self.forgetting = float(forgetting)
        self.detector = detector
        self.drift_shrink = float(drift_shrink)
        self.history = StreamHistory(max_history)
        self.conformal = conformal
        self._batch_counter = 0
        # Long-lived compiled serving plan plus a staleness flag.  Model
        # changes mark the plan stale; the next predict refreshes it
        # incrementally (only sign-changed rows re-pack) instead of
        # recompiling from scratch.
        self._plan = None
        self._plan_stale = False

    @property
    def fitted(self) -> bool:
        """Whether at least one batch has been absorbed."""
        return self.model.fitted

    def predict(self, X: ArrayLike) -> FloatArray:
        """Predict with the current model state (compiled serving path).

        Pure-inference traffic between stream updates runs on a
        :class:`~repro.engine.CompiledPlan` — quantised configurations
        execute as packed XOR + popcount — compiled lazily on the first
        predict after a batch is absorbed.  The plan is long-lived: after
        further stream updates it is *refreshed* in place
        (:meth:`~repro.engine.CompiledPlan.refresh` re-packs only the
        operand rows whose sign pattern moved) rather than recompiled.
        """
        if not self.fitted:
            # Defer to the model for the canonical NotFittedError.
            return self.model.predict(X)
        if self._plan is None:
            self._plan = self.model.compile()
            self._plan_stale = False
        elif self._plan_stale:
            self._plan.refresh(self.model)
            self._plan_stale = False
        return self._plan.predict(X)

    def predict_interval(self, X: ArrayLike) -> PredictionInterval:
        """Predict with conformal bands from the streaming calibrator.

        Requires a ``conformal`` calibrator; the bands reflect every
        prequential residual observed so far (``±inf`` while the
        calibration window is still too small for the target coverage).
        """
        if self.conformal is None:
            raise ConfigurationError(
                "predict_interval requires a conformal calibrator; "
                "construct the stream with conformal=AdaptiveConformal(...)"
            )
        return self.conformal.interval(self.predict(X))

    def invalidate_plan(self) -> None:
        """Mark the compiled serving plan stale after an out-of-band model
        mutation (injected memory faults, manual state surgery); the next
        predict refreshes the sign-changed operand rows."""
        self._plan_stale = True

    def absorb_delta(self, delta) -> None:
        """Fold a merged shard delta into the live model between batches.

        The distributed coordinator's entry point: applies the
        (usually merged) :class:`~repro.core.delta.ModelDelta` through
        the model's delta protocol, then refreshes the long-lived
        serving plan *with the delta's row hint* — only the operand
        rows the delta actually touched are re-copied/re-packed, so a
        shard round that moved two cluster centres costs a two-row
        refresh, not a recompile.
        """
        self.model.apply_delta(delta)
        if self._plan is not None:
            self._plan.refresh(self.model, delta=delta)
            self._plan_stale = False
        else:
            self._plan_stale = True
        registry = _metrics.active()
        if registry is not None:
            # Samples were already counted shard-side by the trainer's
            # map phase; here only the fold events are interesting.
            registry.counter("reghd_distributed_absorbs_total").inc()

    def update(self, X: ArrayLike, y: ArrayLike) -> StreamBatchReport:
        """Absorb one arriving batch (predict-then-train).

        The batch is encoded once: the one :class:`~repro.runtime.Query`
        gives the prequential prediction and is then handed to
        ``partial_fit``, so training reuses its encoding, signs, scales
        and binarised rows.  Returns the prequential report for this
        batch; the full history accumulates on :attr:`history`.
        """
        X_arr = check_2d("X", X)
        y_arr = check_1d("y", y)
        check_matching_lengths("X", X_arr, "y", y_arr)
        self._batch_counter += 1

        prequential: float | None = None
        drift = False
        query = None
        with _tracing.trace("stream/batch", batch=self._batch_counter):
            if self.fitted:
                with span("predict"):
                    with span("encode"):
                        query = self.model._encode_query(X_arr)
                    with span("search"):
                        predictions = self.model._predict_query(query)
                prequential = mean_squared_error(y_arr, predictions)
                if self.conformal is not None:
                    # Same honest predict-then-train residuals feed the
                    # conformal window, so interval coverage is
                    # prequential.
                    self.conformal.observe(y_arr, predictions)
                if self.detector is not None:
                    drift = self.detector.update(
                        float(np.sqrt(prequential))
                    )
                if drift:
                    self.model.models.update_all(
                        (self.drift_shrink - 1.0) * self.model.models.integer
                    )
                    self.model.models.rebinarize()
                elif self.forgetting < 1.0:
                    self.model.models.update_all(
                        (self.forgetting - 1.0) * self.model.models.integer
                    )
                    self.model.models.rebinarize()
            with span("train"):
                self.model.partial_fit(X_arr, y_arr, encoded=query)
        self._plan_stale = True  # model changed; next predict refreshes

        report = StreamBatchReport(
            batch=self._batch_counter,
            prequential_mse=prequential,
            drift_detected=drift,
        )
        self.history.reports.append(report)
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_stream_batches_total").inc()
            if drift:
                registry.counter("reghd_stream_drift_total").inc()
                registry.record_event(
                    "stream_drift",
                    batch=self._batch_counter,
                    prequential_mse=prequential,
                )
            if prequential is not None:
                registry.gauge("reghd_stream_prequential_mse").set(
                    prequential
                )
        return report
