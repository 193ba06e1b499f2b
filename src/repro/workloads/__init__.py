"""Workloads: the scenario layer unifying datasets, examples and benchmarks.

A :class:`Workload` declares *what* to replay — dataset, drift profile,
traffic shape, fault plan, quality gate — and the
:class:`ReplayEngine` is the single executor that streams it through the
resilient learner and scores the SLOs.  The built-in scenario matrix
lives in :mod:`repro.workloads.catalog` and registers itself on import;
``repro workloads`` lists it, ``repro replay`` runs it.
"""

from repro.workloads.base import (
    DRIFT_KINDS,
    FAULT_TARGETS,
    DriftProfile,
    FaultSpec,
    QualityGate,
    Workload,
)
from repro.workloads.registry import (
    WORKLOAD_REGISTRY,
    available_workloads,
    get_workload,
    register_workload,
    unregister_workload,
)
from repro.workloads.replay import (
    BENCHMARK_NAME,
    QUICK_DIM,
    GateCheck,
    ReplayEngine,
    SLOReport,
    workload_bench_record,
)
from repro.workloads.traffic import TRAFFIC_KINDS, TrafficBatch, TrafficShape

# Importing the catalogue registers the built-in scenario matrix.
from repro.workloads import catalog as _catalog  # noqa: F401  (registration)

__all__ = [
    "BENCHMARK_NAME",
    "DRIFT_KINDS",
    "FAULT_TARGETS",
    "TRAFFIC_KINDS",
    "DriftProfile",
    "FaultSpec",
    "GateCheck",
    "QUICK_DIM",
    "QualityGate",
    "ReplayEngine",
    "SLOReport",
    "TrafficBatch",
    "TrafficShape",
    "WORKLOAD_REGISTRY",
    "Workload",
    "available_workloads",
    "get_workload",
    "register_workload",
    "unregister_workload",
    "workload_bench_record",
]
