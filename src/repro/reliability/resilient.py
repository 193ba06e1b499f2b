"""Fault-tolerant streaming RegHD: guards + checkpoints + watchdog + scrub.

:class:`ResilientStreamingRegHD` wraps the drift-aware streaming learner
with the full reliability stack, in this per-batch order:

1. **scrub** (scheduled) — repair memory faults accumulated since the
   last batch, *before* they poison a prediction;
2. **guard** — sanitise the incoming ``(X, y)`` under the configured
   policy; an empty batch, or one the guard drops whole, is reported and
   skipped;
3. **learn** — the usual predict-then-train step of
   :class:`StreamingRegHD`, including forgetting and drift handling;
4. **watchdog** — compare prequential error against the health envelope;
   on ``FAILED``, roll the model back to the newest valid checkpoint;
5. **checkpoint** (scheduled) — atomically persist model + stream state.

Recovery after a crash is :meth:`ResilientStreamingRegHD.recover`: it
finds the newest checkpoint that passes its CRC (skipping corrupt files),
restores the model bit-exactly and resumes the stream at the
checkpointed batch counter with the drift detector mid-state intact — so
replaying the post-checkpoint batches reproduces the uninterrupted run
exactly.
"""

from __future__ import annotations

import pathlib
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.config import RegHDConfig
from repro.exceptions import ConfigurationError, RecoveryError
from repro.reliability.checkpoint import CheckpointInfo, CheckpointManager
from repro.reliability.guards import GuardPolicy, GuardReport, InputGuard
from repro.reliability.scrub import ModelScrubber, ScrubReport
from repro.reliability.watchdog import HealthState, Watchdog
from repro.robust.conformal import AdaptiveConformal
from repro.streaming import PageHinkley, StreamBatchReport, StreamingRegHD
from repro.telemetry import flight as _flight
from repro.telemetry import metrics as _metrics
from repro.telemetry import tracing as _tracing
from repro.telemetry.tracing import span
from repro.types import ArrayLike, FloatArray
from repro.utils.validation import check_1d, check_2d, check_matching_lengths


def _checkpointed_guard(in_features: int, stream: dict) -> InputGuard | None:
    """The guard a checkpointed stream ran with, its gate still fresh
    (``_restore`` loads the gate's state), or None for an unguarded one.
    """
    spec = stream.get("guard")
    if spec is None:
        if "guard_gate" not in stream:
            return None
        spec = {"policy": GuardPolicy.MAHALANOBIS.value}
    value_range = spec.get("value_range")
    return InputGuard(
        in_features,
        policy=spec["policy"],
        value_range=None if value_range is None else tuple(value_range),
        fill_value=float(spec.get("fill_value", 0.0)),
    )


def _stream_snapshot(extra: dict) -> dict:
    """The checkpointed stream state in one shape, whatever wrote it.

    A checkpoint stores the conformal window as an array and the history
    in the journal; older checkpoints kept both inline.  This puts them
    back inline.
    """
    stream = dict(extra.get("stream", {}))
    window = extra.get("arrays", {}).get("conformal_residuals")
    if window is not None:
        stream["conformal"] = {**stream["conformal"], "residuals": window}
    if "records" in extra:
        stream["history"] = {
            **stream.get("history", {}),
            "reports": extra["records"],
        }
    return stream


@dataclass
class ResilientBatchReport(StreamBatchReport):
    """Per-batch report extended with reliability outcomes.

    On a rolled-back batch, ``restored_checkpoint`` names the checkpoint
    the model was restored from (the on-disk file stem) and
    ``trigger_error`` records the prequential RMSE that breached the
    watchdog's fail envelope.
    """

    health: HealthState | None = None
    guard: GuardReport | None = None
    scrub: ScrubReport | None = None
    rolled_back: bool = False
    checkpointed: bool = False
    skipped: bool = False  # the batch, or what the guard kept of it, was empty
    restored_checkpoint: str | None = None
    trigger_error: float | None = None


@dataclass
class RollbackEvent:
    """One watchdog-triggered restoration from a checkpoint.

    ``checkpoint_id`` is the restored checkpoint's file stem
    (``ckpt-<batch>-<crc>``) and ``trigger_error`` the prequential RMSE
    that fired the watchdog — together they answer "which state did we
    return to, and how bad had it gotten" without consulting the disk.
    """

    at_batch: int
    restored_batch: int
    checkpoint: pathlib.Path
    checkpoint_id: str = ""
    trigger_error: float = float("nan")


class ResilientStreamingRegHD(StreamingRegHD):
    """Streaming RegHD with an active fault-tolerance layer.

    Parameters (on top of :class:`StreamingRegHD`)
    ----------
    guard:
        An :class:`InputGuard`, a :class:`GuardPolicy`/string to build one
        from, or None to admit batches unchecked.
    checkpoint_dir / checkpoint_every / keep_checkpoints:
        Enable rotating CRC-checked checkpoints every N batches
        (``checkpoint_every=0`` checkpoints only on explicit
        :meth:`checkpoint` calls).  The directory must hold no
        checkpoints: a stream that already wrote some resumes through
        :meth:`recover`, and a new stream would mix its files with them.
    watchdog:
        A :class:`Watchdog`; on ``FAILED`` the model is rolled back to the
        newest valid checkpoint (when a checkpoint directory is set).
    scrub_every / scrub_replicas:
        Run a :class:`ModelScrubber` pass every N batches (0 disables).
    """

    def __init__(
        self,
        in_features: int,
        config: RegHDConfig | None = None,
        *,
        guard: InputGuard | GuardPolicy | str | None = None,
        checkpoint_dir: str | pathlib.Path | None = None,
        checkpoint_every: int = 0,
        keep_checkpoints: int = 3,
        watchdog: Watchdog | None = None,
        scrub_every: int = 0,
        scrub_replicas: int = 3,
        **streaming_kwargs: object,
    ):
        super().__init__(in_features, config, **streaming_kwargs)
        if checkpoint_every < 0:
            raise ConfigurationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if scrub_every < 0:
            raise ConfigurationError(
                f"scrub_every must be >= 0, got {scrub_every}"
            )
        if isinstance(guard, (GuardPolicy, str)):
            guard = InputGuard(in_features, policy=guard)
        self.guard = guard
        self.checkpoints = None
        if checkpoint_dir is not None:
            self.checkpoints = CheckpointManager(
                checkpoint_dir, keep=keep_checkpoints
            )
            if self.checkpoints.checkpoints():
                raise ConfigurationError(
                    f"{checkpoint_dir} already holds checkpoints: resume "
                    "their stream with ResilientStreamingRegHD.recover(), "
                    "or give this stream an empty directory"
                )
        #: the newest report a checkpoint has journaled
        self._journaled: StreamBatchReport | None = None
        self.checkpoint_every = int(checkpoint_every)
        self.watchdog = watchdog
        self.scrub_every = int(scrub_every)
        self.scrubber = (
            ModelScrubber(self.model, replicas=scrub_replicas)
            if scrub_every > 0
            else None
        )
        self.rollbacks: list[RollbackEvent] = []

    # -- the per-batch pipeline --------------------------------------------

    def update(self, X: ArrayLike, y: ArrayLike) -> ResilientBatchReport:
        """Absorb one batch through the full reliability pipeline.

        Under an armed tracer the whole pipeline shares one trace (or
        joins the replay engine's, when it opened one); an uncaught
        exception dumps a flight-recorder post-mortem before
        propagating, stamped with the failing batch's trace id.
        """
        with _tracing.trace("batch", batch=self._batch_counter + 1):
            try:
                return self._update_pipeline(X, y)
            except Exception as exc:
                _flight.auto_dump(
                    "exception",
                    at_batch=self._batch_counter,
                    error=repr(exc),
                )
                raise

    def _update_pipeline(
        self, X: ArrayLike, y: ArrayLike
    ) -> ResilientBatchReport:
        scrub_report = None
        if (
            self.scrubber is not None
            and self._batch_counter > 0
            and self._batch_counter % self.scrub_every == 0
        ):
            scrub_report = self.scrubber.scrub()

        guard_report = None
        if self.guard is not None:
            with span("guard"):
                X, y, guard_report = self.guard.check(X, y)
        else:
            X, y = check_2d("X", X), check_1d("y", y)
            check_matching_lengths("X", X, "y", y)
        if len(X) == 0:
            report = ResilientBatchReport(
                batch=self._batch_counter,
                prequential_mse=None,
                drift_detected=False,
                guard=guard_report,
                scrub=scrub_report,
                skipped=True,
            )
            self.history.reports.append(report)
            return report

        base = super().update(X, y)
        if self.scrubber is not None:
            # Training wrote the live shadows; mirror the write into the
            # replicas (in hardware this is the same bus cycle).
            self.scrubber.sync()
        report = ResilientBatchReport(
            batch=base.batch,
            prequential_mse=base.prequential_mse,
            drift_detected=base.drift_detected,
            guard=guard_report,
            scrub=scrub_report,
        )
        # super().update appended its own plain report; replace it with
        # the enriched one so history stays one-entry-per-batch.
        self.history.reports[-1] = report

        if self.watchdog is not None and base.prequential_mse is not None:
            trigger = float(np.sqrt(base.prequential_mse))
            report.health = self.watchdog.update(trigger)
            if report.health is HealthState.FAILED:
                with span("rollback"):
                    report.rolled_back = self._rollback(trigger)
                if report.rolled_back:
                    event = self.rollbacks[-1]
                    report.restored_checkpoint = event.checkpoint_id
                    report.trigger_error = trigger
                    # _restore rewound history and the guard's counts to
                    # the checkpoint; re-add this batch to both so the
                    # rollback stays on record.
                    self.history.reports.append(report)
                    if guard_report is not None:
                        self.guard.accumulate(guard_report)
                    # The rollback span has landed in the tracer ring and
                    # the batch trace is still open, so the post-mortem
                    # bundle carries both the guard→…→rollback spans and
                    # the breaching batch's trace id.
                    _flight.auto_dump(
                        "watchdog_rollback",
                        at_batch=event.at_batch,
                        restored_batch=event.restored_batch,
                        checkpoint_id=event.checkpoint_id,
                        trigger_error=trigger,
                    )

        if (
            self.checkpoints is not None
            and self.checkpoint_every > 0
            and not report.rolled_back
            and self._batch_counter % self.checkpoint_every == 0
        ):
            # Marked before the save, so the journaled report says so.
            report.checkpointed = True
            try:
                self.checkpoint()
            except BaseException:
                report.checkpointed = False
                raise
        return report

    def predict(self, X: ArrayLike) -> FloatArray:
        """Predict through the guard (repair/raise apply; under ``drop``
        the returned predictions correspond to the surviving rows).

        A read is screened but not counted into ``guard.total``, which
        covers exactly the batches :meth:`update` screens (the history's
        guard reports); the gate's ``n_gated`` and the guard metrics
        still count it."""
        if self.guard is not None:
            X, _, _ = self.guard.screen(X)
        return super().predict(X)

    # -- checkpointing / recovery ------------------------------------------

    def _stream_state(self) -> tuple[dict, dict]:
        """The stream's per-save state: JSON, plus the conformal residual
        window as an array."""
        arrays = {}
        state: dict = {
            "batch": self._batch_counter,
            "forgetting": self.forgetting,
            "drift_shrink": self.drift_shrink,
        }
        if self.detector is not None:
            state["detector"] = {
                "delta": self.detector.delta,
                "threshold": self.detector.threshold,
                "state": self.detector.get_state(),
            }
        if self.watchdog is not None:
            state["watchdog"] = self.watchdog.get_state()
        if self.conformal is not None:
            conformal = self.conformal.get_state()
            arrays["conformal_residuals"] = np.array(
                conformal.pop("residuals"), dtype=np.float64
            )
            state["conformal"] = conformal
        if self.guard is not None:
            guard = self.guard
            state["guard"] = {
                "policy": guard.policy.value,
                "value_range": (
                    None if guard.value_range is None else list(guard.value_range)
                ),
                "fill_value": guard.fill_value,
                "total": asdict(guard.total),
            }
            if guard.gate is not None:
                state["guard_gate"] = guard.gate.get_state()
        # The reports themselves go to the checkpoint journal.
        state["history"] = {"max_reports": self.history.max_reports}
        return state, arrays

    def checkpoint(self) -> CheckpointInfo:
        """Persist the current model + stream state, atomically.

        The history reports added since the previous checkpoint are
        appended to the directory's journal, so a save's cost does not
        grow with the stream.
        """
        if self.checkpoints is None:
            raise ConfigurationError(
                "no checkpoint_dir was configured for this stream"
            )
        state, arrays = self._stream_state()
        info = self.checkpoints.save(
            self.model,
            batch=self._batch_counter,
            extra={"stream": state},
            arrays=arrays,
            records=self.history.records_since(self._journaled),
            retain=self.history.max_reports,
        )
        reports = self.history.reports
        self._journaled = reports[-1] if reports else None
        return info

    def _restore(self, model, extra: dict) -> int:
        """Copy a restored model + stream state into this instance.

        Returns the restored batch counter.  The copy is in-place (the
        encoder bases never change after construction, so only the
        learned state moves), keeping every external reference to
        ``self.model`` valid.
        """
        # The state protocol applies learned arrays in place (DualCopy
        # .replace copies into the existing buffers), so scrubber shadows
        # and other references to self.model's arrays stay valid.
        self.model.set_state(*model.get_state())
        stream = _stream_snapshot(extra)
        self._batch_counter = int(stream.get("batch", self._batch_counter))
        detector_state = stream.get("detector")
        if self.detector is not None and detector_state is not None:
            self.detector.set_state(detector_state["state"])
        history_state = stream.get("history")
        if history_state is not None:
            self.history.set_state(history_state)
        if self.guard is not None:
            # The guard's running counts cover the same batches as the
            # history; a checkpoint without them counts from zero.
            counts = (stream.get("guard") or {}).get("total")
            self.guard.total = (
                GuardReport(n_rows_in=0, n_rows_out=0)
                if counts is None
                else GuardReport(**counts)
            )
        # Reports restored from a journal are in it already; inline ones
        # (an older checkpoint) go into the next save's journal.
        self._journaled = (
            self.history.reports[-1]
            if "records" in extra and self.history.reports
            else None
        )
        conformal_state = stream.get("conformal")
        if self.conformal is not None and conformal_state is not None:
            # Rolling back the model without rolling back the calibration
            # window would score the restored model against residuals of
            # the diverged one; restore them together.
            self.conformal.set_state(conformal_state)
        gate_state = stream.get("guard_gate")
        if (
            gate_state is not None
            and self.guard is not None
            and self.guard.gate is not None
        ):
            self.guard.gate.set_state(gate_state)
        if self.scrubber is not None:
            self.scrubber.sync()
        # The restore went through DualCopy.replace → rebinarize, which
        # advanced the sign-version counters, so the refreshed plan
        # re-packs only the operand rows whose sign pattern moved.
        self.invalidate_plan()
        return self._batch_counter

    def _rollback(self, trigger_error: float = float("nan")) -> bool:
        """Restore the newest valid checkpoint; False when none exists.

        ``trigger_error`` is the prequential RMSE that breached the fail
        envelope — recorded on the :class:`RollbackEvent` for post-mortem.
        """
        if self.checkpoints is None:
            return False
        try:
            model, extra, info = self.checkpoints.load_latest()
        except RecoveryError:
            return False
        failed_at = self._batch_counter
        restored = self._restore(model, extra)
        if self.watchdog is not None:
            # The window is full of the divergent errors that fired the
            # rollback; the baseline still describes a healthy model.
            self.watchdog.reset(keep_baseline=True)
        event = RollbackEvent(
            at_batch=failed_at,
            restored_batch=restored,
            checkpoint=info.path,
            checkpoint_id=info.path.stem,
            trigger_error=trigger_error,
        )
        self.rollbacks.append(event)
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_watchdog_rollbacks_total").inc()
            registry.record_event(
                "watchdog_rollback",
                at_batch=failed_at,
                restored_batch=restored,
                checkpoint_id=event.checkpoint_id,
                trigger_error=trigger_error,
            )
        return True

    @classmethod
    def recover(
        cls,
        checkpoint_dir: str | pathlib.Path,
        *,
        keep_checkpoints: int = 3,
        detector: PageHinkley | None = None,
        watchdog: Watchdog | None = None,
        **kwargs: object,
    ) -> "ResilientStreamingRegHD":
        """Resume a crashed stream from its checkpoint directory.

        Restores the newest CRC-valid checkpoint (skipping corrupt ones),
        the batch counter, and the drift-detector state — replaying the
        batches that arrived after the checkpoint then reproduces the
        uninterrupted run bit-exactly.  A detector is rebuilt from the
        checkpointed hyper-parameters unless one is passed in; a watchdog
        is only restored when passed in (its envelope config is the
        caller's choice).  The input guard is rebuilt from its
        checkpointed policy, ``value_range`` and ``fill_value`` around
        the restored Mahalanobis gate unless ``guard=`` is passed (a
        checkpoint that records only the gate gets a ``mahalanobis``
        guard); ``guard=None`` resumes unguarded.  The guard's running
        ``total`` comes back with the history, so both count the same
        batches.

        Raises :class:`RecoveryError` when no valid checkpoint exists.
        """
        manager = CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
        model, extra, _ = manager.load_latest()
        stream = _stream_snapshot(extra)
        detector_meta = stream.get("detector")
        if detector is None and detector_meta is not None:
            detector = PageHinkley(
                delta=detector_meta["delta"],
                threshold=detector_meta["threshold"],
            )
        if watchdog is not None and "watchdog" in stream:
            watchdog.set_state(stream["watchdog"])
        if "guard" not in kwargs:
            kwargs["guard"] = _checkpointed_guard(model.in_features, stream)
        if "conformal" not in kwargs and "conformal" in stream:
            # The calibrator's hyper-parameters live in its own snapshot,
            # so recovery rebuilds it wholesale unless the caller passed
            # a replacement.
            kwargs["conformal"] = AdaptiveConformal.from_state(
                stream["conformal"]
            )
        instance = cls(
            model.in_features,
            model.config,
            encoder=model.encoder,
            forgetting=float(stream.get("forgetting", 0.995)),
            drift_shrink=float(stream.get("drift_shrink", 0.1)),
            detector=detector,
            watchdog=watchdog,
            **kwargs,
        )
        # The manager that loaded the checkpoint continues its directory.
        instance.checkpoints = manager
        instance._restore(model, extra)
        return instance
