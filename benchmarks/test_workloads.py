"""Workload replay SLO benchmark.

Replays the full built-in scenario matrix in quick mode through
:class:`repro.workloads.ReplayEngine` and asserts the report's honesty
contract: every registered workload replayed end-to-end, each report
carrying a finite tail RMSE, at least one scored gate, and — for the
fault-bearing scenarios — a non-zero injected-fault count.  Every
workload must pass its gate.  The rendered table (rmse / coverage / p99
/ gate verdict per workload) lands under ``benchmarks/results/`` so
EXPERIMENTS.md can quote it.
"""

from __future__ import annotations

import json

import pytest

from _common import save_result
from repro.evaluation import render_table
from repro.workloads import (
    BENCHMARK_NAME,
    ReplayEngine,
    available_workloads,
    get_workload,
    workload_bench_record,
)


@pytest.fixture(scope="module")
def reports():
    engine = ReplayEngine(quick=True, seed=0)
    return engine.run_all(available_workloads())


@pytest.fixture(scope="module")
def record(reports):
    return workload_bench_record(reports, quick=True, seed=0)


def test_replay_matrix(benchmark, reports, record):
    benchmark.pedantic(
        lambda: ReplayEngine(quick=True, seed=1).run("airfoil_steady"),
        rounds=1,
        iterations=1,
    )

    rows = [
        {
            "workload": r.workload,
            "rows": r.n_rows,
            "rmse": round(r.tail_rmse, 4),
            "coverage": "-" if r.coverage is None else round(r.coverage, 3),
            "p99_ms": round(r.p99_latency_ms, 1),
            "faults": r.faults_injected,
            "gate": "PASS" if r.passed else "FAIL",
        }
        for r in reports
    ]
    table = render_table(rows, precision=4)
    save_result("workload_replay", table)

    assert record["benchmark"] == BENCHMARK_NAME
    assert len(reports) == len(available_workloads()) >= 6
    for r in reports:
        assert r.n_batches > 0
        assert r.n_rows > 0
        assert r.sim_seconds > 0
        assert r.tail_rmse == r.tail_rmse  # finite, not NaN
        assert r.checks, f"{r.workload} scored no gates"
        workload = get_workload(r.workload)
        if workload.faults:
            assert r.faults_injected > 0, f"{r.workload} injected no faults"
        assert r.passed, (
            f"{r.workload} failed its gate: "
            f"{[c for c in r.checks if not c.passed]}"
        )


def test_record_is_json_serialisable(record):
    assert json.loads(json.dumps(record)) == record
