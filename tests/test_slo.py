"""SLO windows, burn-rate telemetry, snapshots, and the top renderer."""

from __future__ import annotations

import io
import json
import math

import pytest

from repro import telemetry
from repro.telemetry import flight as flight_mod
from repro.telemetry import metrics as metrics_mod
from repro.telemetry import slo as slo_mod
from repro.telemetry import tracing as tracing_mod
from repro.telemetry.slo import (
    SLOTracker,
    SLOWindow,
    SnapshotWriter,
    read_snapshot,
    render_top,
    run_top,
)
from repro.workloads.replay import ReplayEngine


@pytest.fixture(autouse=True)
def _isolated_sinks():
    flight_mod.disable_flight()
    tracing_mod.disable_tracing()
    metrics_mod.disable()
    yield
    flight_mod.disable_flight()
    tracing_mod.disable_tracing()
    metrics_mod.disable()


class TestSLOWindow:
    def test_requires_a_limit(self):
        with pytest.raises(ValueError, match="ceiling or a floor"):
            SLOWindow("rmse")

    def test_validates_budget_and_window(self):
        with pytest.raises(ValueError, match="budget"):
            SLOWindow("rmse", ceiling=1.0, budget=0.0)
        with pytest.raises(ValueError, match="window"):
            SLOWindow("rmse", ceiling=1.0, window=0)

    def test_ceiling_burn_rate(self):
        window = SLOWindow("rmse", ceiling=1.0, budget=0.5, window=4)
        assert window.observe(0.5) == 0.0
        # 1 bad of 2 at budget 0.5 -> burning exactly at the limit
        assert window.observe(2.0) == pytest.approx(1.0)
        assert not window.breaching
        assert window.observe(2.0) == pytest.approx((2 / 3) / 0.5)
        assert window.breaching

    def test_floor_counts_undershoot_as_bad(self):
        window = SLOWindow("coverage", floor=0.9, budget=0.5, window=4)
        window.observe(0.95)
        assert window.bad == 0
        window.observe(0.5)
        assert window.bad == 1

    def test_nan_counts_as_bad(self):
        window = SLOWindow("latency_ms", ceiling=10.0, budget=0.5, window=4)
        window.observe(math.nan)
        assert window.bad == 1
        assert window.breaching

    def test_ring_eviction_keeps_incremental_count(self):
        window = SLOWindow("rmse", ceiling=1.0, budget=0.5, window=2)
        window.observe(5.0)  # bad
        window.observe(5.0)  # bad
        assert window.bad == 2
        window.observe(0.1)  # evicts a bad one
        window.observe(0.1)  # evicts the other
        assert window.bad == 0
        assert window.burn_rate == 0.0

    def test_state_is_json_ready(self):
        window = SLOWindow("rmse", ceiling=1.0, budget=0.1, window=8)
        window.observe(0.5)
        state = window.state()
        assert state["gate"] == "rmse"
        assert state["total"] == 1
        assert state["bad"] == 0
        assert state["last"] == 0.5
        assert state["breaching"] is False
        json.dumps(state)  # must serialise

    def test_state_before_observations_has_null_last(self):
        assert SLOWindow("rmse", ceiling=1.0).state()["last"] is None


class _Gate:
    rmse_ceiling = 1.0
    coverage_floor = 0.9
    p99_latency_ms = None


class TestSLOTracker:
    def test_from_gate_duck_types_limits(self):
        tracker = SLOTracker.from_gate(_Gate(), workload="wine")
        assert sorted(tracker.windows) == ["coverage", "rmse"]
        assert tracker.windows["rmse"].ceiling == 1.0
        assert tracker.windows["coverage"].floor == 0.9

    def test_observe_ignores_unknown_names(self):
        tracker = SLOTracker.from_gate(_Gate(), workload="wine")
        burns = tracker.observe(rmse=0.5, latency_ms=3.0)
        assert sorted(burns) == ["rmse"]

    def test_breach_transition_counts_once_and_emits_event(self):
        reg = telemetry.enable()
        gate = _Gate()
        tracker = SLOTracker(
            "wine",
            {"rmse": SLOWindow("rmse", ceiling=gate.rmse_ceiling,
                               budget=0.5, window=4)},
        )
        tracker.observe(rmse=5.0)  # 1/1 bad -> breach transition
        tracker.observe(rmse=5.0)  # still breaching: no second count
        counter = reg.counter(
            "reghd_slo_breaches_total", gate="rmse", workload="wine"
        )
        assert counter.value == 1
        events = [e for e in reg.events if e["kind"] == "slo_breach"]
        assert len(events) == 1
        assert events[0]["gate"] == "rmse"
        # recovery then re-breach counts again
        for _ in range(4):
            tracker.observe(rmse=0.1)
        assert tracker.breaching == []
        tracker.observe(rmse=5.0)
        tracker.observe(rmse=5.0)
        tracker.observe(rmse=5.0)  # 3/4 bad at budget 0.5 -> burn 1.5
        assert counter.value == 2

    def test_observe_updates_burn_gauge_and_flight_samples(self):
        reg = telemetry.enable()
        recorder = flight_mod.enable_flight()
        tracker = SLOTracker.from_gate(_Gate(), workload="wine")
        tracker.observe(rmse=5.0)
        gauge = reg.gauge("reghd_slo_burn_rate", gate="rmse", workload="wine")
        assert gauge.value > 1.0
        samples = recorder.bundle("t")["samples"]
        assert samples[0]["name"] == "burn_rate"
        assert samples[0]["gate"] == "rmse"

    def test_state_sorted_by_gate(self):
        tracker = SLOTracker.from_gate(_Gate(), workload="wine")
        assert [s["gate"] for s in tracker.state()] == ["coverage", "rmse"]


class TestSnapshotWriter:
    def test_write_is_atomic_and_readable(self, tmp_path):
        path = tmp_path / "live.json"
        writer = SnapshotWriter(path)
        writer.write({"kind": slo_mod.SNAPSHOT_KIND, "workload": "wine"})
        assert read_snapshot(path)["workload"] == "wine"
        assert not path.with_name("live.json.tmp").exists()

    def test_every_throttles_but_force_flushes(self, tmp_path):
        path = tmp_path / "live.json"
        writer = SnapshotWriter(path, every=3)
        kinds = [
            writer.write({"kind": slo_mod.SNAPSHOT_KIND, "batch": i})
            for i in range(5)
        ]
        assert kinds == [True, False, False, True, False]
        writer.write({"kind": slo_mod.SNAPSHOT_KIND, "batch": 99}, force=True)
        assert read_snapshot(path)["batch"] == 99

    def test_every_validates(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            SnapshotWriter(tmp_path / "x.json", every=0)

    def test_read_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a reghd-slo-snapshot"):
            read_snapshot(path)


def _snapshot(**overrides) -> dict:
    base = {
        "kind": slo_mod.SNAPSHOT_KIND,
        "workload": "wine",
        "batches": 7,
        "rows": 448,
        "qps": 1234.5,
        "p50_ms": 1.2,
        "p99_ms": 4.8,
        "slo": [
            {"gate": "rmse", "burn_rate": 0.4, "bad": 2, "total": 50,
             "breaching": False},
            {"gate": "latency_ms", "burn_rate": 1.6, "bad": 8, "total": 50,
             "breaching": True},
        ],
        "kernels": [{"kernel": "dense/encode", "calls": 42}],
    }
    base.update(overrides)
    return base


class TestRenderTop:
    def test_renders_headline_slo_caches_kernels(self):
        frame = render_top(_snapshot())
        assert "workload wine" in frame
        assert "qps 1234.50" in frame
        assert "p99 4.80ms" in frame
        assert "rmse" in frame and "latency_ms" in frame
        assert "BREACH" in frame  # only the breaching gate
        assert frame.count("BREACH") == 1
        assert "dense/encode" in frame

    def test_burn_bar_fills_and_overflows(self):
        assert slo_mod._burn_bar(0.0) == "[....................]  "
        assert slo_mod._burn_bar(0.5) == "[##########..........]  "
        assert slo_mod._burn_bar(2.0) == "[####################] !"

    def test_none_percentiles_render_as_dashes(self):
        frame = render_top(_snapshot(p50_ms=None, p99_ms=None))
        assert "p50 --" in frame
        assert "p99 --" in frame

    def test_no_gate_notice(self):
        frame = render_top(_snapshot(slo=[]))
        assert "(no SLO gate attached)" in frame


class TestRunTop:
    def test_renders_requested_iterations_without_clear(self, tmp_path):
        path = tmp_path / "live.json"
        SnapshotWriter(path).write(_snapshot())
        out = io.StringIO()
        frames = run_top(path, iterations=1, clear=False, out=out)
        assert frames == 1
        assert "workload wine" in out.getvalue()
        assert "\x1b[2J" not in out.getvalue()

    def test_clear_prepends_ansi_home(self, tmp_path):
        path = tmp_path / "live.json"
        SnapshotWriter(path).write(_snapshot())
        out = io.StringIO()
        run_top(path, iterations=1, clear=True, out=out)
        assert out.getvalue().startswith("\x1b[2J\x1b[H")

    def test_missing_snapshot_renders_waiting_notice(self, tmp_path):
        out = io.StringIO()
        run_top(tmp_path / "absent.json", iterations=1, clear=False, out=out)
        assert "waiting for snapshot" in out.getvalue()

    def test_unreadable_snapshot_renders_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "nope"}))
        out = io.StringIO()
        run_top(path, iterations=1, clear=False, out=out)
        assert "unreadable snapshot" in out.getvalue()


class TestReplayLiveSnapshot:
    def test_replay_writes_live_snapshot(self, tmp_path):
        path = tmp_path / "live.json"
        engine = ReplayEngine(quick=True, seed=0, live_out=str(path))
        report = engine.run("airfoil_steady")
        snapshot = read_snapshot(path)
        assert snapshot["workload"] == "airfoil_steady"
        assert snapshot["batches"] == report.n_batches
        assert snapshot["rows"] == report.n_rows
        assert snapshot["qps"] > 0
        assert {s["gate"] for s in snapshot["slo"]} >= {"rmse"}
        # the final frame renders cleanly
        assert "workload airfoil_steady" in render_top(snapshot)
