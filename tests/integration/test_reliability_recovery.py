"""End-to-end kill-and-recover tests for the resilient streaming stack.

The headline scenario (ISSUE acceptance criterion): a streaming session
checkpoints periodically, "crashes" (the process state is discarded), its
*newest* checkpoint is deliberately corrupted, and recovery must fall
back to the previous valid checkpoint and replay the tail of the stream
to a bit-exact final model state.
"""

import numpy as np
import pytest

from repro import RegHDConfig
from repro.exceptions import RecoveryError
from repro.reliability import (
    CheckpointManager,
    GuardPolicy,
    HealthState,
    InputGuard,
    ResilientStreamingRegHD,
    Watchdog,
)
from repro.streaming import PageHinkley, StreamingRegHD

CONFIG = RegHDConfig(dim=512, n_models=4, seed=0)


def make_batches(n_batches, *, batch=48, seed=0, concept=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        X = rng.normal(size=(batch, 4))
        if concept == 0:
            y = np.sin(2 * X[:, 0]) + X[:, 1]
        else:
            y = -np.sin(2 * X[:, 0]) - X[:, 1] + 2.0
        out.append((X, y))
    return out


class TestKillAndRecover:
    def test_crash_corrupt_newest_recover_bit_exact(self, tmp_path):
        """Crash + corrupted newest checkpoint: recover from the previous
        one and resume to a bit-exact final state."""
        data = make_batches(20)

        # Uninterrupted reference run (no reliability machinery at all —
        # the reliability layer must not perturb learning).
        reference = StreamingRegHD(4, CONFIG, detector=PageHinkley())
        for X, y in data:
            reference.update(X, y)

        # Checkpointed run that "crashes" after batch 17.
        crashed = ResilientStreamingRegHD(
            4, CONFIG, detector=PageHinkley(),
            checkpoint_dir=tmp_path, checkpoint_every=5,
        )
        for X, y in data[:17]:
            crashed.update(X, y)
        del crashed  # simulated process death

        # Deliberately corrupt the newest checkpoint (batch 15).
        infos = CheckpointManager(tmp_path).checkpoints()
        assert [i.batch for i in infos] == [5, 10, 15]
        newest = infos[-1]
        blob = bytearray(newest.path.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        newest.path.write_bytes(bytes(blob))

        # Recovery must skip the corrupt batch-15 file and land on 10.
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered._batch_counter == 10
        assert recovered.fitted

        # Replay the stream from batch 11 onward.
        for X, y in data[10:]:
            recovered.update(X, y)

        np.testing.assert_array_equal(
            recovered.model.models.integer, reference.model.models.integer
        )
        np.testing.assert_array_equal(
            recovered.model.clusters.integer,
            reference.model.clusters.integer,
        )
        X_query = np.random.default_rng(99).normal(size=(16, 4))
        np.testing.assert_array_equal(
            recovered.predict(X_query), reference.predict(X_query)
        )

    def test_recover_restores_detector_mid_state(self, tmp_path):
        data = make_batches(12)
        stream = ResilientStreamingRegHD(
            4, CONFIG, detector=PageHinkley(threshold=1.5),
            checkpoint_dir=tmp_path, checkpoint_every=4,
        )
        for X, y in data:
            stream.update(X, y)
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered.detector is not None
        assert recovered.detector.threshold == 1.5
        expected = stream.checkpoints.load_latest()[1]["stream"]["detector"]
        assert recovered.detector.get_state() == expected["state"]

    def test_recover_empty_dir_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            ResilientStreamingRegHD.recover(tmp_path / "nothing_here")


class TestRecoveredGuard:
    """``recover`` rebuilds the checkpointed guard unless ``guard=`` is
    passed, its Mahalanobis gate restored."""

    def _stream(self, tmp_path, guard, batches=8):
        stream = ResilientStreamingRegHD(
            4, CONFIG, guard=guard,
            checkpoint_dir=tmp_path, checkpoint_every=batches,
        )
        for X, y in make_batches(batches):
            stream.update(X, y)
        return stream

    def test_recovery_without_guard_scores_like_the_live_gate(self, tmp_path):
        stream = self._stream(tmp_path, "mahalanobis")
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered.guard is not None
        assert recovered.guard.policy is GuardPolicy.MAHALANOBIS
        assert recovered.guard.gate is not None
        X_probe = np.random.default_rng(5).normal(size=(32, 4)) * 2.0
        np.testing.assert_array_equal(
            recovered.guard.gate.leverage2(X_probe),
            stream.guard.gate.leverage2(X_probe),
        )
        assert recovered.guard.gate.get_state() == stream.guard.gate.get_state()

    def test_guard_settings_survive_recovery(self, tmp_path):
        guard = InputGuard(
            4, policy="repair", value_range=(-2.5, 2.5), fill_value=0.25
        )
        self._stream(tmp_path, guard)
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered.guard.policy is GuardPolicy.REPAIR
        assert recovered.guard.value_range == (-2.5, 2.5)
        assert recovered.guard.fill_value == 0.25
        assert recovered.guard.gate is None

    def test_explicit_guard_wins(self, tmp_path):
        self._stream(tmp_path, "mahalanobis")
        assert ResilientStreamingRegHD.recover(tmp_path, guard=None).guard is None
        drop = ResilientStreamingRegHD.recover(tmp_path, guard="drop").guard
        assert drop.policy is GuardPolicy.DROP

    def test_unguarded_stream_recovers_unguarded(self, tmp_path):
        self._stream(tmp_path, None)
        assert ResilientStreamingRegHD.recover(tmp_path).guard is None

    def test_checkpoint_with_only_a_gate_rebuilds_a_mahalanobis_guard(
        self, tmp_path
    ):
        """Checkpoints written before the guard's settings were recorded
        carry only ``guard_gate``."""
        stream = self._stream(tmp_path, "mahalanobis")
        state, arrays = stream._stream_state()
        del state["guard"]
        stream.checkpoints.save(
            stream.model,
            batch=stream._batch_counter + 1,
            extra={"stream": state},
            arrays=arrays,
        )
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered.guard.policy is GuardPolicy.MAHALANOBIS
        assert recovered.guard.gate.get_state() == stream.guard.gate.get_state()


class TestWatchdogRollback:
    def test_poisoned_stream_triggers_rollback(self, tmp_path):
        """Gross target corruption (past the drift detector's gentle
        shrink) must roll the model back to the last checkpoint."""
        stream = ResilientStreamingRegHD(
            4, CONFIG,
            checkpoint_dir=tmp_path, checkpoint_every=5,
            watchdog=Watchdog(
                baseline_batches=10, window=3, fail_factor=4.0
            ),
            forgetting=1.0,
        )
        for X, y in make_batches(20):
            stream.update(X, y)
        healthy_state = stream.model.models.integer.copy()
        last_ckpt = stream.checkpoints.latest_valid()
        assert last_ckpt.batch == 20

        # Poison: targets replaced by huge garbage.
        rng = np.random.default_rng(5)
        rolled = False
        for _ in range(10):
            X = rng.normal(size=(48, 4))
            report = stream.update(X, 1e4 * np.ones(48))
            if report.rolled_back:
                rolled = True
                break
        assert rolled, "watchdog should have fired a rollback"
        assert stream.rollbacks[0].restored_batch == 20
        assert stream._batch_counter == 20
        np.testing.assert_array_equal(
            stream.model.models.integer, healthy_state
        )
        assert stream.watchdog.state is HealthState.HEALTHY

    def test_rollback_rewinds_guard_totals_with_history(self, tmp_path):
        """The guard's running counts cover the batches the history
        keeps: a rollback rewinds both, the rolling-back batch re-added."""
        stream = ResilientStreamingRegHD(
            4, CONFIG, guard="repair",
            checkpoint_dir=tmp_path, checkpoint_every=5,
            watchdog=Watchdog(
                baseline_batches=10, window=3, fail_factor=4.0
            ),
            forgetting=1.0,
        )
        rng = np.random.default_rng(5)
        batches = make_batches(22) + [
            (rng.normal(size=(48, 4)), 1e4 * np.ones(48)) for _ in range(10)
        ]
        for X, y in batches:
            X = X.copy()
            X[0, 0] = np.nan  # one repaired value per batch
            if stream.update(X, y).rolled_back:
                break
        assert stream.rollbacks[0].restored_batch == 20
        reports = [r.guard for r in stream.history.reports]
        assert len(reports) < stream.rollbacks[0].at_batch
        total = stream.guard.total
        assert total.n_rows_in == sum(r.n_rows_in for r in reports)
        assert total.n_repaired_values == len(reports)

    def test_no_rollback_without_checkpoints(self):
        stream = ResilientStreamingRegHD(
            4, CONFIG,
            watchdog=Watchdog(baseline_batches=5, window=2),
        )
        for X, y in make_batches(10):
            stream.update(X, y)
        rng = np.random.default_rng(5)
        reports = [
            stream.update(rng.normal(size=(48, 4)), 1e4 * np.ones(48))
            for _ in range(5)
        ]
        assert any(r.health is HealthState.FAILED for r in reports)
        assert not any(r.rolled_back for r in reports)

    def test_ordinary_drift_does_not_roll_back(self, tmp_path):
        """A genuine concept change is handled by the drift path; the
        watchdog envelope must survive it without firing a rollback."""
        stream = ResilientStreamingRegHD(
            4, CONFIG,
            detector=PageHinkley(threshold=1.0),
            checkpoint_dir=tmp_path, checkpoint_every=5,
            watchdog=Watchdog(
                baseline_batches=15, window=5, fail_factor=12.0
            ),
        )
        for X, y in make_batches(25, seed=0, concept=0):
            stream.update(X, y)
        for X, y in make_batches(20, seed=1, concept=1):
            stream.update(X, y)
        assert stream.history.drift_events
        assert not stream.rollbacks


class TestResilientPipeline:
    def test_guard_skips_fully_bad_batch(self):
        stream = ResilientStreamingRegHD(4, CONFIG, guard="drop")
        X, y = make_batches(1)[0]
        stream.update(X, y)
        report = stream.update(np.full((8, 4), np.nan), np.zeros(8))
        assert report.skipped
        assert stream._batch_counter == 1  # nothing was learned

    def test_reads_are_screened_but_leave_guard_totals_to_updates(self):
        """``guard.total`` covers exactly the batches ``update`` screened,
        the history's guard reports: a read with a 50x outlier row is
        gated, and counted by the gate, but adds nothing to the totals."""
        stream = ResilientStreamingRegHD(
            4, RegHDConfig(dim=64, n_models=4, seed=0), guard="mahalanobis"
        )
        for X, y in make_batches(30, batch=32):
            stream.update(X, y)
        gated = stream.guard.gate.n_gated
        X = np.random.default_rng(1).normal(size=(8, 4))
        X[3] *= 50.0
        assert len(stream.predict(X)) == 7
        assert stream.guard.gate.n_gated == gated + 1
        reports = [r.guard for r in stream.history.reports]
        assert len(reports) == 30
        total = stream.guard.total
        for field in (
            "n_rows_in", "n_rows_out", "n_gated_rows",
            "n_dropped_rows", "n_repaired_values",
        ):
            assert getattr(total, field) == sum(
                getattr(r, field) for r in reports
            ), field

    def test_repair_guard_keeps_stream_finite(self):
        stream = ResilientStreamingRegHD(4, CONFIG, guard="repair")
        rng = np.random.default_rng(0)
        for X, y in make_batches(10):
            X = X.copy()
            X[rng.integers(0, len(X)), 0] = np.nan
            stream.update(X, y)
        assert np.isfinite(stream.model.models.integer).all()
        curve = stream.history.mse_curve()
        assert np.isfinite(curve[1:]).all()

    def test_scheduled_scrub_and_checkpoint_flags(self, tmp_path):
        stream = ResilientStreamingRegHD(
            4, CONFIG,
            checkpoint_dir=tmp_path, checkpoint_every=4, scrub_every=3,
        )
        reports = [stream.update(X, y) for X, y in make_batches(12)]
        assert [r.checkpointed for r in reports].count(True) == 3
        # Scrub runs at the start of batches 4, 7, 10 (counter 3, 6, 9).
        assert sum(r.scrub is not None for r in reports) == 3
        # No shadow faults were injected, so voting repairs nothing (the
        # binary refresh count may be nonzero: full-precision configs let
        # the unused binary copy go stale between scrubs).
        assert all(
            r.scrub.shadow_elements_repaired == 0
            for r in reports
            if r.scrub
        )

    def test_reliability_layer_is_learning_neutral(self, tmp_path):
        """Guards + scrubbing + checkpoints on clean data must reproduce
        the plain streaming learner bit-exactly."""
        plain = StreamingRegHD(4, CONFIG, detector=PageHinkley())
        armored = ResilientStreamingRegHD(
            4, CONFIG, detector=PageHinkley(),
            guard="raise", checkpoint_dir=tmp_path, checkpoint_every=3,
            scrub_every=2,
        )
        for X, y in make_batches(15):
            plain.update(X, y)
            armored.update(X, y)
        np.testing.assert_array_equal(
            plain.model.models.integer, armored.model.models.integer
        )
