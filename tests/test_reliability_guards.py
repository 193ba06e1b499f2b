"""Tests for input-sanitisation guards."""

import numpy as np
import pytest

from repro import RegHDConfig
from repro.exceptions import ConfigurationError, DataGuardError
from repro.reliability import (
    GuardPolicy,
    InputGuard,
    ResilientStreamingRegHD,
    Watchdog,
)
from repro.reliability.guards import coerce_policy
from repro.robust import MahalanobisGate
from repro.robust import gate as gate_module


@pytest.fixture
def clean_batch(rng):
    X = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    return X, y


class TestStructuralChecks:
    """Wrong rank / width / dtype always raise, under every policy."""

    @pytest.mark.parametrize("policy", list(GuardPolicy))
    def test_wrong_feature_count(self, policy, rng):
        guard = InputGuard(3, policy=policy)
        with pytest.raises(DataGuardError, match="features"):
            guard.check(rng.normal(size=(5, 4)), np.zeros(5))

    @pytest.mark.parametrize("policy", list(GuardPolicy))
    def test_wrong_rank(self, policy):
        guard = InputGuard(3, policy=policy)
        with pytest.raises(DataGuardError, match="2-d"):
            guard.check(np.zeros(3), np.zeros(1))

    def test_non_numeric_dtype(self):
        guard = InputGuard(2, policy="repair")
        with pytest.raises(DataGuardError, match="convertible"):
            guard.check([["a", "b"]], np.zeros(1))

    def test_length_mismatch(self, rng):
        guard = InputGuard(3)
        with pytest.raises(DataGuardError, match="rows"):
            guard.check(rng.normal(size=(5, 3)), np.zeros(4))

    def test_invalid_in_features(self):
        with pytest.raises(ConfigurationError):
            InputGuard(0)

    def test_invalid_value_range(self):
        with pytest.raises(ConfigurationError):
            InputGuard(3, value_range=(1.0, -1.0))


class TestCleanBatches:
    def test_pass_through_untouched(self, clean_batch):
        X, y = clean_batch
        X_out, y_out, report = InputGuard(3).check(X, y)
        assert report.clean
        np.testing.assert_array_equal(X_out, X)
        np.testing.assert_array_equal(y_out, y)

    def test_inference_only_batch(self, clean_batch):
        X, _ = clean_batch
        X_out, y_out, report = InputGuard(3).check(X)
        assert y_out is None
        assert report.clean


class TestRaisePolicy:
    def test_nan_rejected(self, clean_batch):
        X, y = clean_batch
        X[2, 1] = np.nan
        with pytest.raises(DataGuardError, match="non-finite feature"):
            InputGuard(3, policy="raise").check(X, y)

    def test_inf_rejected(self, clean_batch):
        X, y = clean_batch
        X[0, 0] = np.inf
        with pytest.raises(DataGuardError):
            InputGuard(3).check(X, y)

    def test_bad_target_rejected(self, clean_batch):
        X, y = clean_batch
        y[4] = np.nan
        with pytest.raises(DataGuardError, match="target"):
            InputGuard(3).check(X, y)

    def test_out_of_range_rejected(self, clean_batch):
        X, y = clean_batch
        X[1, 2] = 1e6
        with pytest.raises(DataGuardError, match="out-of-range"):
            InputGuard(3, value_range=(-100.0, 100.0)).check(X, y)


class TestRepairPolicy:
    def test_nan_filled(self, clean_batch):
        X, y = clean_batch
        X[2, 1] = np.nan
        X[5, 0] = -np.inf
        X_out, y_out, report = InputGuard(
            3, policy="repair", fill_value=0.0
        ).check(X, y)
        assert np.isfinite(X_out).all()
        assert X_out[2, 1] == 0.0 and X_out[5, 0] == 0.0
        assert report.n_repaired_values == 2
        assert len(X_out) == len(y_out) == 10  # no rows lost

    def test_out_of_range_clipped(self, clean_batch):
        X, y = clean_batch
        X[1, 2] = 1e6
        X_out, _, report = InputGuard(
            3, policy="repair", value_range=(-10.0, 10.0)
        ).check(X, y)
        assert X_out[1, 2] == 10.0
        assert report.n_repaired_values == 1

    def test_bad_target_row_dropped(self, clean_batch):
        X, y = clean_batch
        y[4] = np.nan
        X_out, y_out, report = InputGuard(3, policy="repair").check(X, y)
        assert len(X_out) == len(y_out) == 9
        assert report.n_dropped_rows == 1
        assert np.isfinite(y_out).all()

    def test_input_not_mutated(self, clean_batch):
        X, y = clean_batch
        X[0, 0] = np.nan
        X_copy = X.copy()
        InputGuard(3, policy="repair").check(X, y)
        np.testing.assert_array_equal(X, X_copy)


class TestDropPolicy:
    def test_offending_rows_dropped(self, clean_batch):
        X, y = clean_batch
        X[2, 1] = np.nan
        y[7] = np.inf
        X_out, y_out, report = InputGuard(3, policy="drop").check(X, y)
        assert len(X_out) == len(y_out) == 8
        assert report.n_dropped_rows == 2
        assert np.isfinite(X_out).all() and np.isfinite(y_out).all()

    def test_all_rows_dropped(self, rng):
        X = np.full((4, 3), np.nan)
        X_out, y_out, report = InputGuard(3, policy="drop").check(
            X, np.zeros(4)
        )
        assert len(X_out) == 0
        assert report.n_rows_out == 0


class TestAccumulation:
    def test_totals_accumulate_across_batches(self, rng):
        guard = InputGuard(3, policy="drop")
        for _ in range(3):
            X = rng.normal(size=(5, 3))
            X[0, 0] = np.nan
            guard.check(X, np.zeros(5))
        assert guard.total.n_rows_in == 15
        assert guard.total.n_dropped_rows == 3

    def test_totals_keep_counts_not_issue_strings(self):
        """A long stream of dirty batches leaves exact counts behind and
        retains none of the per-batch issue strings."""
        guard = InputGuard(2, policy="repair")
        X = np.array([[np.nan, 1.0], [2.0, np.inf], [0.5, 0.5]])
        y = np.array([1.0, 2.0, np.nan])
        for _ in range(10_000):
            _, _, report = guard.check(X, y)
        assert len(report.issues) == 2
        total = guard.total
        assert total.n_rows_in == 30_000
        assert total.n_rows_out == 20_000
        assert total.n_repaired_values == 20_000
        assert total.n_dropped_rows == 10_000
        assert total.issues == []


def _linear_batches(rng, n=300, d=3):
    X = rng.normal(size=(n, d))
    y = X @ np.arange(1, d + 1, dtype=float) + 0.1 * rng.normal(size=n)
    return X, y


def _warm_guard(rng, n=300, d=3, **gate_kwargs):
    """A mahalanobis guard warmed on clean correlated data."""
    gate = MahalanobisGate(d, **gate_kwargs) if gate_kwargs else None
    guard = InputGuard(d, policy="mahalanobis", gate=gate)
    X, y = _linear_batches(rng, n, d)
    for start in range(0, n, 50):
        guard.check(X[start : start + 50], y[start : start + 50])
    return guard


class TestUnknownPolicy:
    def test_error_lists_valid_policies(self):
        with pytest.raises(ConfigurationError, match="mahalanobis"):
            InputGuard(3, policy="bogus")
        with pytest.raises(ConfigurationError, match="'raise', 'repair'"):
            coerce_policy("nope")

    def test_coerce_accepts_enum_and_string(self):
        assert coerce_policy("drop") is GuardPolicy.DROP
        assert coerce_policy(GuardPolicy.RAISE) is GuardPolicy.RAISE


class TestMahalanobisPolicy:
    def test_default_gate_constructed(self):
        guard = InputGuard(4, policy="mahalanobis")
        assert guard.gate is not None
        assert guard.gate.in_features == 4

    def test_gate_dimension_mismatch(self):
        with pytest.raises(ConfigurationError, match="features"):
            InputGuard(4, gate=MahalanobisGate(3))

    def test_clean_batches_pass_during_warmup(self, rng):
        guard = InputGuard(3, policy="mahalanobis")
        X, y = _linear_batches(rng, 20)
        X_out, y_out, report = guard.check(X, y)
        assert len(X_out) == 20
        assert report.n_gated_rows == 0

    def test_leverage_outliers_gated(self, rng):
        guard = _warm_guard(rng)
        X, y = _linear_batches(rng, 40)
        X[:4] += 50.0  # far outside the input distribution
        _, _, report = guard.check(X, y)
        assert report.n_gated_rows >= 4
        assert any("gated" in issue for issue in report.issues)

    def test_residual_outliers_gated(self, rng):
        guard = _warm_guard(rng)
        X, y = _linear_batches(rng, 40)
        y[:4] += 100.0  # plausible inputs, impossible targets
        _, _, report = guard.check(X, y)
        assert report.n_gated_rows >= 4

    def test_nonfinite_dropped_before_gating(self, rng):
        guard = _warm_guard(rng)
        X, y = _linear_batches(rng, 40)
        X[0, 0] = np.nan
        X[1] += 50.0
        _, _, report = guard.check(X, y)
        assert report.n_dropped_rows == 1
        assert report.n_gated_rows >= 1
        assert report.n_rows_out == 40 - report.n_dropped_rows - report.n_gated_rows

    def test_inference_batches_scored_not_learned(self, rng):
        guard = _warm_guard(rng)
        weight_before = guard.gate.tracker.weight
        X, _ = _linear_batches(rng, 20)
        X[:3] += 50.0
        X_out, y_out, report = guard.check(X)
        assert y_out is None
        assert report.n_gated_rows >= 3
        assert guard.gate.tracker.weight == weight_before

    def test_sustained_contamination_does_not_drag_estimate(self, rng):
        """Once warm, repeated outliers are excluded from the moments, so
        the gate keeps rejecting them instead of adapting to them."""
        guard = _warm_guard(rng)
        mean_before = guard.gate.tracker.mean.copy()
        for _ in range(5):
            X, y = _linear_batches(rng, 40)
            X[:8] += 50.0
            guard.check(X, y)
        drift = np.abs(guard.gate.tracker.mean - mean_before).max()
        assert drift < 1.0  # a 50-sigma burst admitted even once would move it far

    def test_totals_track_gated_rows(self, rng):
        guard = _warm_guard(rng)
        X, y = _linear_batches(rng, 40)
        X[:5] += 50.0
        guard.check(X, y)
        assert guard.total.n_gated_rows >= 5


class TestDegenerateCovariance:
    def test_constant_feature_deviation_gated(self, rng):
        """A zero-variance column puts deviations along it in the null
        space — they must score infinite, not crash the pseudo-inverse."""
        guard = InputGuard(3, policy="mahalanobis")
        n = 200
        X = rng.normal(size=(n, 3))
        X[:, 2] = 5.0  # constant column
        y = X[:, 0] + 0.1 * rng.normal(size=n)
        for start in range(0, n, 50):
            guard.check(X[start : start + 50], y[start : start + 50])
        probe_X, probe_y = _linear_batches(rng, 10)
        probe_X[:, 2] = 5.0
        probe_X[0, 2] = 9.0  # moves along the dead direction
        probe_y = probe_X[:, 0]
        _, _, report = guard.check(probe_X, probe_y)
        assert report.n_gated_rows >= 1

    def test_fewer_rows_than_features(self, rng):
        """n < d batches keep the covariance singular; scoring must stay
        finite-or-inf, never raise."""
        guard = InputGuard(6, policy="mahalanobis")
        for _ in range(4):
            X = rng.normal(size=(3, 6))
            y = X[:, 0]
            X_out, _, report = guard.check(X, y)
            assert len(X_out) == 3  # warmup admits everything

    def test_all_rows_gated_reports_empty_batch(self, rng):
        gate = MahalanobisGate(3, warmup=8, leverage_p=0.9)
        guard = InputGuard(3, policy="mahalanobis", gate=gate)
        X, y = _linear_batches(rng, 100)
        for start in range(0, 100, 25):
            guard.check(X[start : start + 25], y[start : start + 25])
        X_bad = np.full((5, 3), 80.0) + rng.normal(size=(5, 3))
        y_bad = np.zeros(5)
        X_out, y_out, report = guard.check(X_bad, y_bad)
        assert len(X_out) == len(y_out) == 0
        assert report.n_rows_out == 0
        assert report.n_gated_rows == 5

    def test_single_feature_guard(self, rng):
        guard = InputGuard(1, policy="mahalanobis")
        X = rng.normal(size=(200, 1))
        y = 2.0 * X[:, 0]
        for start in range(0, 200, 50):
            guard.check(X[start : start + 50], y[start : start + 50])
        X_probe = np.vstack([rng.normal(size=(9, 1)), [[30.0]]])
        y_probe = 2.0 * X_probe[:, 0]
        _, _, report = guard.check(X_probe, y_probe)
        assert report.n_gated_rows >= 1


class TestGatePartitionCache:
    """The gate derives its partitioned moments once per moment update
    and serves every read in between from that one derivation."""

    def test_one_eigendecomposition_per_moment_change(self, rng, monkeypatch):
        """Cycles shaped like a mixed read/write stream (twenty 8-row
        reads, then one labelled 32-row batch) eigendecompose Sigma_xx
        once per moment change, not once per score (22 per cycle)."""
        guard = _warm_guard(rng)
        calls = []
        clipped_eigh = gate_module.clipped_eigh

        def counting(cov):
            calls.append(1)
            return clipped_eigh(cov)

        monkeypatch.setattr(gate_module, "clipped_eigh", counting)
        for cycle in range(1, 4):
            weight = guard.gate.tracker.weight
            for _ in range(20):
                X, _ = _linear_batches(rng, 8)
                guard.check(X)
            X, y = _linear_batches(rng, 32)
            guard.check(X, y)
            assert guard.gate.tracker.weight > weight
            assert len(calls) == cycle

    def test_scores_match_a_rebuilt_gate_after_every_state_change(
        self, rng, tmp_path
    ):
        """After filter(X, y), set_state and a watchdog rollback, scores
        bit-equal those of a gate rebuilt from the same state."""
        X_probe, y_probe = _linear_batches(rng, 16, 4)
        X_probe[0] += 20.0

        def assert_current(gate):
            rebuilt = MahalanobisGate.from_state(gate.get_state())
            for args in ((X_probe,), (X_probe, y_probe)):
                ours, theirs = gate.score(*args), rebuilt.score(*args)
                np.testing.assert_array_equal(ours.keep, theirs.keep)
                np.testing.assert_array_equal(ours.leverage, theirs.leverage)
                if len(args) == 2:
                    np.testing.assert_array_equal(
                        ours.residual, theirs.residual
                    )

        gate = MahalanobisGate(4, warmup=32)
        gate.filter(*_linear_batches(rng, 64, 4))
        assert_current(gate)
        gate.filter(*_linear_batches(rng, 40, 4))
        assert_current(gate)

        other = MahalanobisGate(4, warmup=32)
        X, y = _linear_batches(rng, 80, 4)
        other.filter(3.0 * X, -y)
        gate.set_state(other.get_state())
        assert_current(gate)

        # A gate that scores but never excludes lets poisoned targets
        # reach the model, so the watchdog fires and rolls back.
        stream = ResilientStreamingRegHD(
            4,
            RegHDConfig(dim=256, n_models=2, seed=0),
            guard=InputGuard(
                4, policy="mahalanobis", gate=MahalanobisGate(4, warmup=10**6)
            ),
            checkpoint_dir=tmp_path,
            checkpoint_every=5,
            watchdog=Watchdog(baseline_batches=10, window=3, fail_factor=4.0),
            forgetting=1.0,
        )
        for _ in range(20):
            stream.update(*_linear_batches(rng, 48, 4))
        saved = stream.guard.gate.get_state()
        for _ in range(10):
            X, _ = _linear_batches(rng, 48, 4)
            stream.guard.gate.score(X)
            if stream.update(X, np.full(48, 1e4)).rolled_back:
                break
        assert stream.rollbacks
        assert stream.guard.gate.get_state() == saved
        assert_current(stream.guard.gate)
