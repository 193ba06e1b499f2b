"""The scenario layer: workload declarations, registry, traffic, replay.

The replay end-to-end tests run one small synthetic workload in quick
mode — the full catalogue replay lives in ``benchmarks/test_workloads.py``
where its runtime belongs.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.workloads import (
    BENCHMARK_NAME,
    DriftProfile,
    FaultSpec,
    QualityGate,
    ReplayEngine,
    TrafficShape,
    WORKLOAD_REGISTRY,
    Workload,
    available_workloads,
    get_workload,
    register_workload,
    unregister_workload,
    workload_bench_record,
)

# --- drift profiles --------------------------------------------------------


def test_no_drift_is_identity():
    y = np.array([1.0, -2.0, 3.0])
    profile = DriftProfile()
    assert profile.severity(0.99) == 0.0
    np.testing.assert_array_equal(profile.apply(y, 0.99), y)


def test_abrupt_drift_steps_at_the_change_point():
    profile = DriftProfile(kind="abrupt", at=0.5, target_scale=-1.0,
                           target_offset=2.0)
    assert profile.severity(0.49) == 0.0
    assert profile.severity(0.5) == 1.0
    y = np.array([1.0, 3.0])
    np.testing.assert_allclose(profile.apply(y, 0.8), -y + 2.0)


def test_gradual_drift_ramps_linearly():
    profile = DriftProfile(kind="gradual", at=0.4, width=0.2)
    assert profile.severity(0.3) == 0.0
    assert profile.severity(0.5) == pytest.approx(0.5)
    assert profile.severity(0.9) == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [{"kind": "sawtooth"}, {"at": 1.5}, {"width": 0.0}],
)
def test_invalid_drift_profiles_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        DriftProfile(**kwargs)


# --- fault specs -----------------------------------------------------------


def test_fault_fires_only_inside_its_progress_window():
    fault = FaultSpec("gaussian", rate=0.1, start=0.25, stop=0.75)
    assert not fault.active(0.1, 0)
    assert fault.active(0.5, 0)
    assert not fault.active(0.75, 0)  # stop is exclusive


def test_fault_every_skips_batches():
    fault = FaultSpec("gaussian", rate=0.1, every=3)
    fired = [i for i in range(9) if fault.active(0.5, i)]
    assert fired == [0, 3, 6]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"injector": "nonexistent", "rate": 0.1},
        {"injector": "gaussian", "rate": 1.5},
        {"injector": "gaussian", "rate": 0.1, "target": "weights"},
        {"injector": "gaussian", "rate": 0.1, "start": 0.8, "stop": 0.2},
        {"injector": "gaussian", "rate": 0.1, "every": 0},
    ],
)
def test_invalid_fault_specs_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        FaultSpec(**kwargs)


# --- quality gates ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tail_fraction": 0.0},
        {"coverage_floor": 1.2},
        {"rmse_ceiling": -1.0},
        {"p99_latency_ms": 0.0},
    ],
)
def test_invalid_gates_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        QualityGate(**kwargs)


# --- traffic shapes --------------------------------------------------------

N_ROWS = 500


@pytest.mark.parametrize("kind", ["steady", "bursty", "diurnal", "adversarial"])
def test_schedule_covers_every_row_exactly_once(kind):
    schedule = TrafficShape(kind=kind, batch_size=32).schedule(N_ROWS, seed=0)
    covered = []
    for batch in schedule:
        assert batch.size == len(batch.arrivals)
        covered.extend(range(batch.start, batch.start + batch.size))
    assert covered == list(range(N_ROWS))


@pytest.mark.parametrize("kind", ["steady", "bursty", "diurnal", "adversarial"])
def test_arrival_timestamps_strictly_increase(kind):
    schedule = TrafficShape(kind=kind).schedule(N_ROWS, seed=3)
    all_arrivals = np.concatenate([b.arrivals for b in schedule])
    assert np.all(np.diff(all_arrivals) > 0)


def test_schedule_is_deterministic_per_seed():
    shape = TrafficShape(kind="bursty", batch_size=16, burst_size=64)
    a = shape.schedule(N_ROWS, seed=5)
    b = shape.schedule(N_ROWS, seed=5)
    c = shape.schedule(N_ROWS, seed=6)
    assert [x.size for x in a] == [x.size for x in b]
    np.testing.assert_array_equal(a[0].arrivals, b[0].arrivals)
    assert any(
        x.size != y.size for x, y in zip(a, c)
    ) or not np.array_equal(a[0].arrivals, c[0].arrivals)


def test_adversarial_alternates_starve_and_flood():
    schedule = TrafficShape(kind="adversarial", batch_size=8).schedule(
        400, seed=0
    )
    assert schedule[0].size == 1
    assert schedule[1].size == 64  # batch_size * 8


def test_batch_rows_slice_matches_geometry():
    batch = TrafficShape().schedule(100, seed=0)[1]
    assert batch.rows == slice(batch.start, batch.start + batch.size)


@pytest.mark.parametrize(
    "kwargs",
    [{"kind": "tidal"}, {"batch_size": 0}, {"rate_hz": 0.0},
     {"burst_prob": 2.0}, {"period": 1}, {"amplitude": 1.0}],
)
def test_invalid_traffic_shapes_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        TrafficShape(**kwargs)


def test_schedule_rejects_empty_stream():
    with pytest.raises(ConfigurationError):
        TrafficShape().schedule(0)


# --- workload declarations -------------------------------------------------


def _tiny_workload(name="tiny_test_workload", **overrides):
    defaults = dict(
        name=name,
        description="unit-test scenario",
        dataset="linear",
        dataset_kwargs={"n_samples": 400, "n_features": 4},
        quick_kwargs={"n_samples": 200},
        traffic=TrafficShape(kind="steady", batch_size=25),
        gate=QualityGate(rmse_ceiling=5.0),
        dim=128,
        n_models=2,
    )
    defaults.update(overrides)
    return Workload(**defaults)


def test_quick_kwargs_shrink_the_dataset():
    workload = _tiny_workload()
    assert workload.load(quick=False, seed=0).n_samples == 400
    assert workload.load(quick=True, seed=0).n_samples == 200


def test_max_rows_caps_by_subsampling():
    workload = _tiny_workload(max_rows=150, quick_max_rows=50)
    assert workload.load(quick=False, seed=0).n_samples == 150
    assert workload.load(quick=True, seed=0).n_samples == 50


def test_has_model_faults_flag():
    clean = _tiny_workload()
    faulty = _tiny_workload(
        faults=(FaultSpec("bit_flip", rate=0.01, target="model"),)
    )
    assert not clean.has_model_faults
    assert faulty.has_model_faults


@pytest.mark.parametrize(
    "kwargs",
    [{"name": ""}, {"encoder": "fourier"}, {"dim": 8}, {"n_models": 0}],
)
def test_invalid_workloads_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        _tiny_workload(**kwargs)


# --- workload registry -----------------------------------------------------


def test_builtin_catalogue_is_registered():
    names = available_workloads()
    assert len(names) >= 6
    assert "airfoil_steady" in names
    assert get_workload("airfoil_steady").dataset == "airfoil"


def test_register_decorator_and_unregister():
    @register_workload
    def _factory():
        return _tiny_workload(name="registry_test_workload")

    try:
        assert "registry_test_workload" in WORKLOAD_REGISTRY
        with pytest.raises(ConfigurationError):
            register_workload(
                lambda: _tiny_workload(name="registry_test_workload")
            )
        register_workload(
            lambda: _tiny_workload(name="registry_test_workload"),
            replace=True,
        )
    finally:
        unregister_workload("registry_test_workload")
    assert "registry_test_workload" not in WORKLOAD_REGISTRY


def test_get_workload_unknown_name_lists_available():
    with pytest.raises(ConfigurationError, match="airfoil_steady"):
        get_workload("no_such_workload")


def test_factory_must_return_a_workload():
    with pytest.raises(ConfigurationError):
        register_workload(lambda: "not a workload")


# --- replay end-to-end -----------------------------------------------------


@pytest.fixture(scope="module")
def tiny_report():
    workload = _tiny_workload(
        name="replay_unit_workload",
        drift=DriftProfile(kind="abrupt", at=0.6, target_offset=1.0),
        faults=(FaultSpec("gaussian", rate=0.05, target="x", start=0.3),),
        gate=QualityGate(rmse_ceiling=50.0, p99_latency_ms=10_000.0),
    )
    return ReplayEngine(quick=True, seed=0).run(workload)


def test_replay_report_geometry(tiny_report):
    assert tiny_report.workload == "replay_unit_workload"
    assert tiny_report.quick
    assert tiny_report.n_rows == 200
    assert tiny_report.n_batches == 8  # 200 rows / 25-row batches
    assert tiny_report.sim_seconds > 0
    assert np.isfinite(tiny_report.tail_rmse)
    assert tiny_report.faults_injected > 0
    assert tiny_report.p99_latency_ms >= tiny_report.p50_latency_ms >= 0


def test_replay_scores_declared_gates(tiny_report):
    gates = {c.gate for c in tiny_report.checks}
    assert gates == {"rmse_ceiling", "p99_latency_ms"}
    assert tiny_report.passed == all(c.passed for c in tiny_report.checks)


def test_replay_quality_is_deterministic_per_seed(tiny_report):
    workload = _tiny_workload(
        name="replay_unit_workload",
        drift=DriftProfile(kind="abrupt", at=0.6, target_offset=1.0),
        faults=(FaultSpec("gaussian", rate=0.05, target="x", start=0.3),),
        gate=QualityGate(rmse_ceiling=50.0, p99_latency_ms=10_000.0),
    )
    again = ReplayEngine(quick=True, seed=0).run(workload)
    assert again.tail_rmse == tiny_report.tail_rmse
    assert again.faults_injected == tiny_report.faults_injected

    other_seed = ReplayEngine(quick=True, seed=7).run(workload)
    assert other_seed.tail_rmse != tiny_report.tail_rmse


def test_replay_accepts_registered_names():
    report = ReplayEngine(quick=True, seed=0).run("airfoil_steady")
    assert report.workload == "airfoil_steady"
    assert report.dataset == "airfoil"


def test_report_round_trips_through_json(tiny_report):
    payload = tiny_report.to_dict()
    assert json.loads(json.dumps(payload)) == payload


def test_replay_latency_percentiles_are_exact(monkeypatch):
    """p50/p99 are exact quantiles of the measured batch times, not
    interpolations inside the latency histogram's buckets."""
    from repro.workloads import replay

    # Dyadic durations (about 1-40 ms) so the clock differences are exact.
    seconds = [k / 1024 for k in (3, 1, 40, 2, 7, 5, 4, 6)]
    # The loop reads the clock once at the start, then before and after
    # each batch's update.
    readings = iter(
        [0.0] + [t for i, s in enumerate(seconds) for t in (i, i + s)]
    )
    monkeypatch.setattr(
        replay, "_timing", SimpleNamespace(monotonic=lambda: next(readings))
    )
    report = ReplayEngine(quick=True, seed=0).run(
        _tiny_workload(gate=QualityGate(p99_latency_ms=1000.0))
    )
    assert report.n_batches == len(seconds)
    assert report.p50_latency_ms == np.quantile(seconds, 0.5) * 1e3
    assert report.p99_latency_ms == np.quantile(seconds, 0.99) * 1e3
    assert report.checks[0].value == report.p99_latency_ms


# --- the SLO report ----------------------------------------------------------


def test_bench_record_shape(tiny_report):
    record = workload_bench_record([tiny_report], quick=True, seed=0)
    assert record["benchmark"] == BENCHMARK_NAME
    assert record["params"]["n_workloads"] == 1
    assert record["results"][0]["workload"] == "replay_unit_workload"
