"""Property test: the guard's one whole-batch test changes nothing.

:class:`InputGuard` tests each batch once and builds per-row masks only
for a batch that fails.  :class:`_MaskedGuard` is the guard as it was
before that test, building every mask for every batch.  On any mix of
finite, non-finite and out-of-range batches, under every policy, with
and without targets and a value range, the two must return the same
rows and reports, keep the same totals and gate state, and record the
same ``reghd_guard_*`` metrics and events.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.exceptions import DataGuardError
from repro.reliability import GuardPolicy, InputGuard
from repro.robust import MahalanobisGate

FEATURES = 3


class _MaskedGuard(InputGuard):
    """Every batch through the per-row masks, as before the clean path."""

    def check(self, X, y=None):
        X_arr = self._as_float_2d(X)
        n_rows = len(X_arr)
        y_arr = None if y is None else self._as_float_1d(y, n_rows)
        report = type(self.total)(n_rows_in=n_rows, n_rows_out=n_rows)
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
        n_bad = int(bad_X.sum() + out_of_range.sum() + bad_y.sum())
        if n_bad == 0 and self.policy is not GuardPolicy.MAHALANOBIS:
            self.accumulate(report)
            self._emit(report, "clean")
            return X_arr, y_arr, report
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
                X_arr = np.clip(X_arr, *self.value_range)
            report.n_repaired_values = int(bad_X.sum() + out_of_range.sum())
            keep = ~bad_y
        else:
            keep = ~(bad_X.any(axis=1) | out_of_range.any(axis=1) | bad_y)
        if not keep.all():
            X_arr = X_arr[keep]
            y_arr = None if y_arr is None else y_arr[keep]
            report.n_dropped_rows = int(n_rows - keep.sum())
        return self._finish(
            X_arr, y_arr, report,
            repaired=self.policy is GuardPolicy.REPAIR,
        )


_VALUES = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 40.0, -40.0]),
)


@st.composite
def _batch(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.normal(size=(n, FEATURES))
    y = X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=n)
    for _ in range(draw(st.integers(min_value=0, max_value=3)) if n else 0):
        row = draw(st.integers(0, n - 1))
        col = draw(st.integers(0, FEATURES))  # FEATURES: the target
        value = draw(_VALUES)
        if col == FEATURES:
            y[row] = value
        else:
            X[row, col] = value
    return X, (y if draw(st.booleans()) else None)


def _run(guard, batches):
    registry = telemetry.enable(telemetry.MetricsRegistry())
    try:
        outputs = []
        for X, y in batches:
            try:
                outputs.append(guard.check(X, y))
            except DataGuardError as exc:
                outputs.append(str(exc))
        return outputs, registry
    finally:
        telemetry.disable()


class TestCleanPathMatchesMaskedPath:
    @given(
        policy=st.sampled_from(list(GuardPolicy)),
        value_range=st.sampled_from([None, (-5.0, 5.0)]),
        batches=st.lists(_batch(), min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_rows_reports_totals_and_metrics(
        self, policy, value_range, batches
    ):
        def build(cls):
            gate = MahalanobisGate(FEATURES, warmup=8)
            return cls(
                FEATURES,
                policy=policy,
                value_range=value_range,
                gate=gate if policy is GuardPolicy.MAHALANOBIS else None,
            )

        guard, masked = build(InputGuard), build(_MaskedGuard)
        outputs, registry = _run(guard, batches)
        expected, expected_registry = _run(masked, batches)
        for out, ref in zip(outputs, expected, strict=True):
            if isinstance(ref, str):
                assert out == ref
                continue
            np.testing.assert_array_equal(out[0], ref[0])
            if ref[1] is None:
                assert out[1] is None
            else:
                np.testing.assert_array_equal(out[1], ref[1])
            assert out[2] == ref[2]
        assert guard.total == masked.total
        if policy is GuardPolicy.MAHALANOBIS:
            assert guard.gate.get_state() == masked.gate.get_state()
        assert telemetry.to_prometheus(registry) == telemetry.to_prometheus(
            expected_registry
        )
        assert registry.events == expected_registry.events
