"""The built-in scenario matrix.

Eight workloads spanning the paper's claims: clean steady-state accuracy
(airfoil), drift adaptation (ccpp, sensor recalibration), sequence
regression through the permutation encoder (sensor_seq), high-cardinality
sparse inputs, multi-output forecasting at scale, adversarial arrival
patterns with contaminated rows, and memory-fault endurance under active
scrubbing.  Each is a pure declaration — the replay engine supplies the
resilient streaming machinery, so adding a scenario here automatically
adds it to ``repro workloads`` and ``repro replay``, whose default
replays the whole catalogue.

RMSE ceilings are in raw target units of each dataset and were calibrated
at roughly 1.5× the observed tail RMSE of a healthy seeded replay, so a
regression has headroom for seed jitter but not for a broken pipeline.
Latency SLOs are deliberately loose: they catch pathological per-batch
cost (an accidental recompile per batch), not machine-to-machine
variance.
"""

from __future__ import annotations

from repro.workloads.base import DriftProfile, FaultSpec, QualityGate, Workload
from repro.workloads.registry import register_workload
from repro.workloads.traffic import TrafficShape


@register_workload
def airfoil_steady() -> Workload:
    return Workload(
        name="airfoil_steady",
        description=(
            "Clean steady-state baseline: the paper's airfoil table "
            "streamed at a constant rate, no drift, no faults."
        ),
        dataset="airfoil",
        max_rows=1500,
        quick_max_rows=480,
        traffic=TrafficShape(kind="steady", batch_size=48),
        gate=QualityGate(rmse_ceiling=8.5, p99_latency_ms=500.0),
        tags=("paper", "baseline"),
    )


@register_workload
def ccpp_bursty() -> Workload:
    return Workload(
        name="ccpp_bursty",
        description=(
            "Power-plant load under bursty telemetry with a gradual "
            "sensor recalibration drift and stuck-at-zero input faults."
        ),
        dataset="ccpp",
        max_rows=2400,
        quick_max_rows=600,
        drift=DriftProfile(
            kind="gradual", at=0.55, width=0.3, target_offset=8.0
        ),
        traffic=TrafficShape(kind="bursty", batch_size=32, burst_size=192),
        faults=(
            FaultSpec("stuck_at_zero", rate=0.02, target="x", start=0.2),
        ),
        gate=QualityGate(rmse_ceiling=22.0, p99_latency_ms=500.0),
        tags=("paper", "drift", "faults"),
    )


@register_workload
def sensor_seq() -> Workload:
    return Workload(
        name="sensor_seq",
        description=(
            "Sequence regression through the permutation encoder: "
            "one-step-ahead sensor forecasting on diurnal traffic with "
            "analog input noise, gated on conformal coverage."
        ),
        dataset="sensor_forecast",
        dataset_kwargs={"n": 2000, "window": 16},
        quick_kwargs={"n": 700},
        encoder="sequence",
        traffic=TrafficShape(kind="diurnal", batch_size=40, period=16),
        faults=(FaultSpec("gaussian", rate=0.05, target="x", start=0.3),),
        gate=QualityGate(
            rmse_ceiling=0.7, coverage_floor=0.6, p99_latency_ms=500.0
        ),
        tags=("timeseries", "sequence", "faults"),
    )


@register_workload
def sensor_recalibration() -> Workload:
    return Workload(
        name="sensor_recalibration",
        description=(
            "Abrupt concept drift: mid-stream the forecasting target is "
            "inverted and offset (a sensor recalibration), exercising "
            "Page-Hinkley detection and hard re-adaptation."
        ),
        dataset="sensor_forecast",
        dataset_kwargs={"n": 2000, "window": 16},
        quick_kwargs={"n": 700},
        drift=DriftProfile(
            kind="abrupt", at=0.5, target_scale=-1.0, target_offset=2.0
        ),
        traffic=TrafficShape(kind="steady", batch_size=40),
        gate=QualityGate(rmse_ceiling=1.8, p99_latency_ms=500.0),
        tags=("timeseries", "drift"),
    )


@register_workload
def highcard_sparse() -> Workload:
    return Workload(
        name="highcard_sparse",
        description=(
            "High-cardinality multi-hot features under bursty traffic "
            "with sign-flip memory faults repaired by active scrubbing."
        ),
        dataset="highcard",
        dataset_kwargs={"n_samples": 1600, "n_categories": 96},
        quick_kwargs={"n_samples": 600, "n_categories": 48},
        traffic=TrafficShape(kind="bursty", batch_size=32, burst_size=160),
        faults=(
            FaultSpec(
                "sign_flip", rate=0.01, target="model", start=0.25, every=7
            ),
        ),
        gate=QualityGate(rmse_ceiling=4.5, p99_latency_ms=500.0),
        tags=("sparse", "faults", "scrub"),
    )


@register_workload
def multihorizon_diurnal() -> Workload:
    return Workload(
        name="multihorizon_diurnal",
        description=(
            "Multi-output forecasting at scale: a 1/2/4-step forecast "
            "fan flattened to horizon-tagged rows, streamed on a "
            "diurnal cycle with slow amplitude drift."
        ),
        dataset="forecast_multi",
        dataset_kwargs={"n": 1400, "window": 12, "horizons": (1, 2, 4)},
        quick_kwargs={"n": 400},
        drift=DriftProfile(kind="gradual", at=0.6, width=0.3, target_scale=1.3),
        traffic=TrafficShape(kind="diurnal", batch_size=48, period=20),
        gate=QualityGate(rmse_ceiling=0.9, p99_latency_ms=500.0),
        tags=("timeseries", "multioutput", "drift"),
    )


@register_workload
def adversarial_burst() -> Workload:
    return Workload(
        name="adversarial_burst",
        description=(
            "Adversarial arrivals (starve-then-flood batching, near-zero "
            "gaps) with correlated outlier contamination, screened by the "
            "Mahalanobis guard."
        ),
        dataset="interaction",
        dataset_kwargs={"n_samples": 1600},
        quick_kwargs={"n_samples": 600},
        traffic=TrafficShape(kind="adversarial", batch_size=24),
        faults=(
            FaultSpec("outlier_burst", rate=0.08, target="x", start=0.15),
        ),
        guard_policy="mahalanobis",
        gate=QualityGate(
            rmse_ceiling=1.3, coverage_floor=0.8, p99_latency_ms=1000.0
        ),
        tags=("adversarial", "faults", "guard"),
    )


@register_workload
def wine_memory_faults() -> Workload:
    return Workload(
        name="wine_memory_faults",
        description=(
            "Endurance run on the wine surrogate with periodic bit-flip "
            "memory corruption, leaning on scrub + watchdog + rollback."
        ),
        dataset="wine",
        max_rows=2000,
        quick_max_rows=600,
        traffic=TrafficShape(kind="steady", batch_size=40),
        faults=(
            FaultSpec(
                "bit_flip", rate=0.015, target="model", start=0.2, every=5
            ),
        ),
        gate=QualityGate(rmse_ceiling=1.7, p99_latency_ms=500.0),
        tags=("paper", "faults", "scrub"),
    )
