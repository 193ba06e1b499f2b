"""Tests for streaming RegHD and the Page-Hinkley detector."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import RegHDConfig
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.encoding.nonlinear import NonlinearEncoder
from repro.exceptions import ConfigurationError
from repro.metrics import mean_squared_error
from repro.reliability.resilient import ResilientStreamingRegHD
from repro.reliability.watchdog import Watchdog
from repro.robust.conformal import AdaptiveConformal
from repro.streaming import PageHinkley, StreamBatchReport, StreamingRegHD


class TestPageHinkley:
    def test_stable_stream_no_drift(self):
        detector = PageHinkley(threshold=2.0)
        rng = np.random.default_rng(0)
        fired = [detector.update(abs(e)) for e in 0.1 * rng.normal(size=500)]
        assert not any(fired)

    def test_error_jump_detected(self):
        detector = PageHinkley(threshold=2.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            detector.update(abs(0.1 * rng.normal()))
        fired_at = None
        for i in range(100):
            if detector.update(abs(2.0 + 0.1 * rng.normal())):
                fired_at = i
                break
        assert fired_at is not None
        assert fired_at < 50  # detects within a few dozen samples

    def test_resets_after_detection(self):
        detector = PageHinkley(threshold=0.5, delta=0.0)
        for _ in range(50):
            detector.update(0.0)
        assert detector.update(10.0)  # huge spike fires immediately-ish
        # After the automatic reset the internal state is clean.
        assert detector._count == 0

    def test_negative_error_rejected(self):
        with pytest.raises(ConfigurationError):
            PageHinkley().update(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta": -0.1}, {"threshold": 0.0}],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            PageHinkley(**kwargs)


def _stream_batches(concept: int, n_batches: int, batch: int, seed: int):
    """Yield (X, y) batches; the target map flips with ``concept``."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        X = rng.normal(size=(batch, 4))
        if concept == 0:
            y = np.sin(2 * X[:, 0]) + X[:, 1]
        else:
            y = -np.sin(2 * X[:, 0]) - X[:, 1] + 2.0
        yield X, y


CONFIG = RegHDConfig(dim=512, n_models=4, seed=0)


class TestStreamingRegHD:
    def test_first_batch_has_no_prequential(self):
        stream = StreamingRegHD(4, CONFIG)
        report = stream.update(np.zeros((8, 4)), np.zeros(8))
        assert report.prequential_mse is None

    def test_prequential_error_decreases_on_stationary_stream(self):
        stream = StreamingRegHD(4, CONFIG, forgetting=1.0)
        for X, y in _stream_batches(0, 30, 64, seed=0):
            stream.update(X, y)
        curve = stream.history.mse_curve()
        assert np.nanmean(curve[-5:]) < np.nanmean(curve[1:6])

    def test_drift_detector_fires_on_concept_change(self):
        stream = StreamingRegHD(
            4, CONFIG, detector=PageHinkley(threshold=1.0), forgetting=1.0
        )
        for X, y in _stream_batches(0, 25, 64, seed=0):
            stream.update(X, y)
        for X, y in _stream_batches(1, 25, 64, seed=1):
            stream.update(X, y)
        events = stream.history.drift_events
        assert events, "drift should have been detected"
        assert min(events) > 25  # not during the first concept

    def test_adaptation_recovers_faster_with_drift_handling(self):
        """After an abrupt concept flip the drift-aware learner must get
        back to low error faster than the frozen-memory one."""

        def final_error(adaptive: bool) -> float:
            stream = StreamingRegHD(
                4,
                CONFIG,
                detector=PageHinkley(threshold=1.0) if adaptive else None,
                forgetting=0.99 if adaptive else 1.0,
                drift_shrink=0.0,
            )
            for X, y in _stream_batches(0, 25, 64, seed=0):
                stream.update(X, y)
            for X, y in _stream_batches(1, 15, 64, seed=1):
                stream.update(X, y)
            return float(np.nanmean(stream.history.mse_curve()[-5:]))

        assert final_error(adaptive=True) < final_error(adaptive=False)

    def test_forgetting_bounds_model_norm(self):
        heavy = StreamingRegHD(4, CONFIG, forgetting=0.9)
        frozen = StreamingRegHD(4, CONFIG, forgetting=1.0)
        for X, y in _stream_batches(0, 20, 64, seed=0):
            heavy.update(X, y)
            frozen.update(X, y)
        assert np.linalg.norm(heavy.model.models.integer) < np.linalg.norm(
            frozen.model.models.integer
        )

    def test_history_bookkeeping(self):
        stream = StreamingRegHD(4, CONFIG)
        for X, y in _stream_batches(0, 5, 16, seed=0):
            stream.update(X, y)
        assert stream.history.n_batches == 5
        assert len(stream.history.mse_curve()) == 5

    @pytest.mark.parametrize(
        "kwargs", [{"forgetting": 0.0}, {"forgetting": 1.5}, {"drift_shrink": -0.1}]
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            StreamingRegHD(4, CONFIG, **kwargs)

    def test_predict_delegates(self):
        stream = StreamingRegHD(4, CONFIG)
        X = np.random.default_rng(0).normal(size=(16, 4))
        stream.update(X, X[:, 0])
        assert stream.predict(X).shape == (16,)


class TestPageHinkleyEdgeCases:
    def test_zero_error_stream_never_fires(self):
        detector = PageHinkley(threshold=1.0, delta=0.0)
        assert not any(detector.update(0.0) for _ in range(1000))
        assert detector._mean == 0.0

    def test_zero_then_spike_fires(self):
        detector = PageHinkley(threshold=0.5, delta=0.0)
        for _ in range(100):
            detector.update(0.0)
        fired = [detector.update(1.0) for _ in range(5)]
        assert any(fired)

    def test_detection_reset_redetection_cycle(self):
        """The detector must stay usable across repeated drifts."""
        detector = PageHinkley(threshold=1.0, delta=0.01)
        rng = np.random.default_rng(0)
        detections = 0
        for _cycle in range(3):
            # Calm regime: small errors re-establish the running mean.
            for _ in range(150):
                detector.update(abs(0.05 * rng.normal()))
            # Shifted regime: errors jump; the detector must fire and,
            # having auto-reset, fire again on the next cycle.
            for _ in range(100):
                if detector.update(abs(2.0 + 0.1 * rng.normal())):
                    detections += 1
                    break
        assert detections == 3

    def test_state_roundtrip_is_bit_exact(self):
        detector = PageHinkley(threshold=2.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            detector.update(abs(rng.normal()))
        clone = PageHinkley(threshold=2.0)
        clone.set_state(detector.get_state())
        tail = [abs(e) for e in rng.normal(size=100)]
        assert [detector.update(e) for e in tail] == [
            clone.update(e) for e in tail
        ]


class TestDriftShrinkAdaptation:
    def test_drift_shrink_reduces_post_drift_error(self):
        """On a synthetic concept shift, the shrink-on-drift path must
        reach lower post-drift prequential error than a learner that
        merely averages the two concepts (no detector, no forgetting)."""

        def post_drift_error(detector: PageHinkley | None) -> float:
            stream = StreamingRegHD(
                4, CONFIG, detector=detector,
                forgetting=1.0, drift_shrink=0.1,
            )
            for X, y in _stream_batches(0, 25, 64, seed=0):
                stream.update(X, y)
            for X, y in _stream_batches(1, 20, 64, seed=1):
                stream.update(X, y)
            return float(np.nanmean(stream.history.mse_curve()[-8:]))

        with_shrink = post_drift_error(PageHinkley(threshold=1.0))
        without = post_drift_error(None)
        assert with_shrink < without


class TestStreamHistoryBounds:
    def test_unbounded_by_default(self):
        stream = StreamingRegHD(4, CONFIG)
        for X, y in _stream_batches(0, 30, 16, seed=0):
            stream.update(X, y)
        assert stream.history.n_batches == 30

    def test_max_history_bounds_retention(self):
        stream = StreamingRegHD(4, CONFIG, max_history=10)
        for X, y in _stream_batches(0, 30, 16, seed=0):
            stream.update(X, y)
        assert stream.history.n_batches == 10
        assert len(stream.history.mse_curve()) == 10
        # The retained window is the newest 10 batches.
        assert [r.batch for r in stream.history.reports] == list(
            range(21, 31)
        )

    def test_drift_events_over_retained_window(self):
        from repro.streaming import StreamBatchReport, StreamHistory

        history = StreamHistory(max_reports=5)
        for batch in range(1, 11):
            history.reports.append(
                StreamBatchReport(
                    batch=batch,
                    prequential_mse=1.0,
                    drift_detected=(batch % 4 == 0),
                )
            )
        # Batches 6..10 retained; drift at 4 has been evicted.
        assert history.drift_events == [8]

    def test_invalid_max_reports(self):
        from repro.streaming import StreamHistory

        with pytest.raises(ConfigurationError):
            StreamHistory(max_reports=0)
        with pytest.raises(ConfigurationError):
            StreamingRegHD(4, CONFIG, max_history=-1)


class _ReferenceStream(StreamingRegHD):
    """The stream update rebuilt from public calls, encoding twice:
    ``model.predict``, then the same forgetting or drift step, then
    ``model.partial_fit``."""

    def update(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._batch_counter += 1
        model = self.model
        prequential = None
        drift = False
        if model.fitted:
            predictions = model.predict(X)
            prequential = mean_squared_error(y, predictions)
            if self.conformal is not None:
                self.conformal.observe(y, predictions)
            if self.detector is not None:
                drift = self.detector.update(float(np.sqrt(prequential)))
            if drift or self.forgetting < 1.0:
                factor = self.drift_shrink if drift else self.forgetting
                model.models.update_all((factor - 1.0) * model.models.integer)
                model.models.rebinarize()
        model.partial_fit(X, y)
        self.invalidate_plan()
        report = StreamBatchReport(
            batch=self._batch_counter,
            prequential_mse=prequential,
            drift_detected=drift,
        )
        self.history.reports.append(report)
        return report


class _ReferenceResilient(ResilientStreamingRegHD, _ReferenceStream):
    """The resilient pipeline around :class:`_ReferenceStream`'s update."""


def _concept_flip_batches(n_batches: int, rows: int = 32, seed: int = 7):
    """Batches whose target map flips halfway (drift fires)."""
    rng = np.random.default_rng(seed)
    for i in range(n_batches):
        X = rng.normal(size=(rows, 4))
        y = np.sin(2 * X[:, 0]) + X[:, 1]
        yield X, (3.0 - 2.0 * y if i >= n_batches // 2 else y)


def _assert_streams_identical(stream, twin, X_eval):
    assert_array_equal(stream.history.mse_curve(), twin.history.mse_curve())
    assert stream.history.drift_events == twin.history.drift_events
    window = stream.conformal.get_state()
    twin_window = twin.conformal.get_state()
    assert_array_equal(window.pop("residuals"), twin_window.pop("residuals"))
    assert window == twin_window
    for name in ("clusters", "models"):
        dual = getattr(stream.model, name)
        twin_dual = getattr(twin.model, name)
        assert_array_equal(dual.integer, twin_dual.integer)
        assert_array_equal(dual.binary, twin_dual.binary)
        assert_array_equal(dual.sign_versions, twin_dual.sign_versions)
    assert_array_equal(stream.predict(X_eval), twin.predict(X_eval))
    assert_array_equal(
        stream.model.predict(X_eval), twin.model.predict(X_eval)
    )


class TestSharedEncodingDifferential:
    """One encode per update must learn exactly what predict-then-
    partial_fit (two encodes) learns, in every configuration."""

    @pytest.mark.parametrize("batch_size", [8, 32, 64])
    @pytest.mark.parametrize(
        "cluster_quant,predict_quant",
        list(itertools.product(ClusterQuant, PredictQuant)),
        ids=lambda q: q.value,
    )
    def test_matches_predict_then_partial_fit(
        self, cluster_quant, predict_quant, batch_size
    ):
        config = RegHDConfig(
            dim=256,
            n_models=4,
            seed=1,
            batch_size=batch_size,
            cluster_quant=cluster_quant,
            predict_quant=predict_quant,
        )

        def build(cls):
            return cls(
                4,
                config,
                forgetting=0.99,
                detector=PageHinkley(threshold=0.5),
                conformal=AdaptiveConformal(window=64),
            )

        stream, twin = build(StreamingRegHD), build(_ReferenceStream)
        for X, y in _concept_flip_batches(24):
            stream.update(X, y)
            twin.update(X, y)
        assert stream.history.drift_events  # the drift shrink ran
        X_eval = np.random.default_rng(99).normal(size=(40, 4))
        _assert_streams_identical(stream, twin, X_eval)

    def test_resilient_guard_drops_rows_and_watchdog_rolls_back(
        self, tmp_path
    ):
        def build(cls, name):
            return cls(
                4,
                RegHDConfig(dim=256, n_models=4, seed=2),
                guard="mahalanobis",
                checkpoint_dir=tmp_path / name,
                checkpoint_every=2,
                # any error above the warm-up baseline fails
                watchdog=Watchdog(
                    baseline_batches=8,
                    window=1,
                    warn_factor=1.0,
                    fail_factor=1.0,
                ),
                forgetting=0.997,
                detector=PageHinkley(),
                conformal=AdaptiveConformal(window=64),
            )

        stream = build(ResilientStreamingRegHD, "stream")
        twin = build(_ReferenceResilient, "twin")
        for i, (X, y) in enumerate(_concept_flip_batches(24, seed=3)):
            if i >= 3 and i % 4 == 0:
                X = X.copy()
                X[:3] += 40.0  # leverage outliers the gate drops
            stream.update(X, y)
            twin.update(X, y)
        assert stream.guard.gate.n_gated > 0
        assert stream.rollbacks
        assert [r.checkpoint_id for r in stream.rollbacks] == [
            r.checkpoint_id for r in twin.rollbacks
        ]
        assert stream.guard.gate.n_gated == twin.guard.gate.n_gated
        X_eval = np.random.default_rng(98).normal(size=(40, 4))
        _assert_streams_identical(stream, twin, X_eval)


class TestOneEncodePerUpdate:
    @pytest.mark.parametrize(
        "resilient", [False, True], ids=["plain", "resilient"]
    )
    def test_each_update_encodes_once(self, monkeypatch, resilient, tmp_path):
        calls = []
        encode_batch = NonlinearEncoder.encode_batch

        def counting(self, X):
            calls.append(len(X))
            return encode_batch(self, X)

        monkeypatch.setattr(NonlinearEncoder, "encode_batch", counting)
        if resilient:
            stream = ResilientStreamingRegHD(
                4,
                CONFIG,
                guard="mahalanobis",
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
                watchdog=Watchdog(),
            )
        else:
            stream = StreamingRegHD(4, CONFIG, detector=PageHinkley())
        for i, (X, y) in enumerate(_concept_flip_batches(6)):
            before = len(calls)
            report = stream.update(X, y)
            assert (report.prequential_mse is None) == (i == 0)
            assert len(calls) == before + 1, f"batch {i}"


class TestEmptyBatches:
    @pytest.mark.parametrize("resilient", [False, True])
    def test_empty_first_batch_is_recorded_without_training(
        self, tmp_path, resilient
    ):
        """An empty batch, first in the stream, is recorded without
        training or a checkpoint; the stream then learns and predicts bit
        for bit as one that never saw it."""

        def stream(name):
            if not resilient:
                return StreamingRegHD(4, CONFIG)
            return ResilientStreamingRegHD(
                4, CONFIG, checkpoint_dir=tmp_path / name, checkpoint_every=1
            )

        poked, clean = stream("poked"), stream("clean")
        report = poked.update(np.zeros((0, 4)), np.zeros(0))
        assert (report.batch, report.prequential_mse) == (0, None)
        assert list(poked.history.reports) == [report]
        assert not poked.model.fitted
        if resilient:
            assert report.skipped
            assert poked.checkpoints.checkpoints() == []
        for X, y in _stream_batches(0, n_batches=4, batch=32, seed=3):
            ours, theirs = poked.update(X, y), clean.update(X, y)
            assert ours.prequential_mse == theirs.prequential_mse
        assert_array_equal(poked.predict(X), clean.predict(X))
        assert np.isfinite(poked.predict(X)).all()
