"""Trace-context propagation, exemplars, and Chrome trace export.

Covers the tracing acceptance criteria:

* the disabled path is a shared no-op (no contextvar reads, no
  allocation) and predictions are bit-identical with tracing on or off;
* trace/span ids are deterministic sequence numbers, parent/child
  structure follows span nesting, a trace opened inside another joins
  it instead of minting a second id, and a compiled plan's tile stages
  hang under the innermost open span;
* span and trace frames share one stack: ``reghd_span_seconds`` labels
  are the same with the tracer on or off, and threads nest spans
  independently;
* latency histograms record the slowest observation's trace id per
  bucket (exemplars) while a trace is open;
* a fitted stream update records one ``encode`` span, under
  ``predict`` and beside ``search``, with ``train`` after them;
* the Chrome trace-event export matches a checked-in golden file under
  a pinned monotonic clock.
"""

from __future__ import annotations

import json
import pathlib
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.streaming import StreamingRegHD
from repro.telemetry import metrics as metrics_mod
from repro.telemetry import tracing as tracing_mod
from repro.telemetry.tracing import _NULL_FRAME
from repro.workloads.replay import ReplayEngine

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "telemetry"

GOLDEN_META = {
    "package_version": "0.0.0-test",
    "runtime_version": "0-test",
    "backend": "dense",
}


@pytest.fixture(autouse=True)
def _isolated_sinks():
    """Every test starts and ends with tracing and metrics disabled."""
    tracing_mod.disable_tracing()
    metrics_mod.disable()
    yield
    tracing_mod.disable_tracing()
    metrics_mod.disable()


def _fake_clock():
    """A deterministic monotonic clock: 1ms per read, starting at 0."""
    state = {"t": 0.0}

    def monotonic() -> float:
        value = state["t"]
        state["t"] += 0.001
        return value

    return monotonic


class TestDisabledPath:
    def test_trace_returns_shared_null(self):
        a = telemetry.trace("batch")
        b = telemetry.trace("other", attr=1)
        assert a is b is _NULL_FRAME

    def test_null_trace_exposes_none_ids(self):
        with telemetry.trace("batch") as t:
            assert t.trace_id is None
        assert telemetry.current_trace_id() is None

    def test_enabling_metrics_alone_records_no_trace(self):
        telemetry.enable()
        with telemetry.trace("batch"):
            with telemetry.span("inner"):
                pass
        assert telemetry.active_tracer() is None


class TestTraceStructure:
    def test_deterministic_ids(self):
        tracer = telemetry.enable_tracing()
        with telemetry.trace("a") as ta:
            pass
        with telemetry.trace("b") as tb:
            pass
        assert ta.trace_id == "t00000001"
        assert tb.trace_id == "t00000002"
        fresh = telemetry.enable_tracing(tracing_mod.Tracer())
        with telemetry.trace("c") as tc:
            pass
        assert tc.trace_id == "t00000001"
        assert fresh is telemetry.active_tracer()
        assert tracer is not fresh

    def test_parent_child_structure(self):
        tracer = telemetry.enable_tracing()
        with telemetry.trace("batch") as ctx:
            with telemetry.span("predict"):
                with telemetry.span("encode"):
                    pass
        by_name = {r.name: r for r in tracer.records}
        assert by_name["batch"].parent_id is None
        assert by_name["predict"].parent_id == by_name["batch"].span_id
        assert by_name["encode"].parent_id == by_name["predict"].span_id
        assert {r.trace_id for r in tracer.records} == {ctx.trace_id}

    def test_nested_trace_joins_instead_of_forking(self):
        tracer = telemetry.enable_tracing()
        with telemetry.trace("replay/batch") as outer:
            with telemetry.trace("stream/batch") as inner:
                assert inner is outer  # joined: same context object
                with telemetry.span("train"):
                    pass
        assert {r.trace_id for r in tracer.records} == {outer.trace_id}
        assert tracer.n_traces == 1
        by_name = {r.name: r for r in tracer.records}
        # the joined trace became a child span of the outer root
        joined = by_name["stream/batch"]
        assert joined.parent_id == by_name["replay/batch"].span_id
        assert by_name["train"].parent_id == joined.span_id

    def test_span_outside_trace_records_with_empty_trace_id(self):
        tracer = telemetry.enable_tracing()
        with telemetry.span("orphan"):
            pass
        (rec,) = tracer.records
        assert rec.trace_id == ""
        assert rec.parent_id is None

    def test_trace_counters(self):
        telemetry.enable_tracing()
        reg = metrics_mod.active()
        with telemetry.trace("a"):
            with telemetry.span("x"):
                pass
        assert reg.counter("reghd_trace_traces_total").value == 1
        # root span + inner span
        assert reg.counter("reghd_trace_spans_total").value == 2

    def test_plan_stages_hang_under_the_innermost_span(self, tiny_regression):
        X_train, y_train, X_test, _ = tiny_regression
        model = MultiModelRegHD(
            X_train.shape[1], RegHDConfig(dim=128, n_models=2, seed=0)
        )
        model.partial_fit(X_train, y_train)
        plan = model.compile(tile_rows=16)
        tracer = telemetry.enable_tracing()
        with telemetry.trace("r") as root:
            with telemetry.span("predict"):
                plan.predict(X_test)
        predict = next(r for r in tracer.records if r.name == "predict")
        stages = [r for r in tracer.records if r.name.startswith("tile/")]
        n_tiles = -(-len(X_test) // 16)
        assert sorted({r.name for r in stages}) == [
            "tile/accumulate", "tile/encode", "tile/search"
        ]
        assert len(stages) == 3 * n_tiles
        assert {r.parent_id for r in stages} == {predict.span_id}
        assert {r.trace_id for r in stages} == {root.trace_id}
        assert {r.path for r in stages} == {r.name for r in stages}
        assert sum(r.attrs["rows"] for r in stages) == 3 * len(X_test)

    def test_plan_stages_outside_a_trace_are_not_recorded(
        self, tiny_regression
    ):
        X_train, y_train, X_test, _ = tiny_regression
        model = MultiModelRegHD(
            X_train.shape[1], RegHDConfig(dim=128, n_models=2, seed=0)
        )
        model.partial_fit(X_train, y_train)
        plan = model.compile()
        tracer = telemetry.enable_tracing()
        with telemetry.span("predict"):
            plan.predict(X_test)
        assert [r.name for r in tracer.records] == ["predict"]


def _span_labels(registry) -> set[str]:
    return {
        dict(m.labels)["span"]
        for m in registry.metrics()
        if m.name == "reghd_span_seconds"
    }


class TestOneSpanStack:
    """Span and trace frames share one stack: a trace frame is never a
    path segment, so the tracer does not rename span series."""

    def test_stream_update_labels_equal_tracing_on_and_off(self):
        from repro.reliability.resilient import ResilientStreamingRegHD

        def labels(traced: bool) -> set[str]:
            rng = np.random.default_rng(0)
            stream = ResilientStreamingRegHD(
                4, RegHDConfig(dim=128, n_models=4, seed=0)
            )
            stream.update(rng.normal(size=(16, 4)), rng.normal(size=16))
            registry = metrics_mod.enable(metrics_mod.MetricsRegistry())
            if traced:
                telemetry.enable_tracing()
            stream.update(rng.normal(size=(16, 4)), rng.normal(size=16))
            tracing_mod.disable_tracing()
            metrics_mod.disable()
            return _span_labels(registry)

        off, on = labels(False), labels(True)
        assert "predict/encode" in off
        assert on == off

    def test_replay_labels_equal_tracing_on_and_off(self):
        def labels(traced: bool) -> set[str]:
            registry = metrics_mod.enable(metrics_mod.MetricsRegistry())
            ReplayEngine(quick=True, trace=traced).run("airfoil_steady")
            metrics_mod.disable()
            return _span_labels(registry)

        off, on = labels(False), labels(True)
        assert "predict/encode" in off
        assert on == off

    def test_threads_nest_spans_independently(self):
        tracer = telemetry.enable_tracing()
        names = {0: ("a0", "a1", "a2"), 1: ("b0", "b1", "b2")}
        barrier = threading.Barrier(2)

        def work(worker: int) -> None:
            outer, mid, inner = names[worker]
            barrier.wait(timeout=10)
            for _ in range(200):
                with telemetry.span(outer):
                    with telemetry.span(mid):
                        with telemetry.span(inner):
                            pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(w,)) for w in names
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        records = tracer.records
        assert len(records) == 2 * 3 * 200
        by_id = {r.span_id: r for r in records}
        for rec in records:
            own = names[0] if rec.name in names[0] else names[1]
            assert set(rec.path.split("/")) <= set(own)
            if rec.parent_id is not None:
                parent = by_id[rec.parent_id]
                assert parent.thread == rec.thread
                assert parent.name in own
        assert {r.path for r in records} == {
            "a0", "a0/a1", "a0/a1/a2", "b0", "b0/b1", "b0/b1/b2"
        }


class TestExemplars:
    def test_slowest_observation_per_bucket_keeps_trace_id(self):
        telemetry.enable_tracing()
        reg = metrics_mod.active()
        hist = reg.histogram("reghd_replay_batch_seconds", workload="w")
        with telemetry.trace("one") as t1:
            hist.observe(0.52)
        with telemetry.trace("two") as t2:
            hist.observe(0.6)  # same bucket, slower: wins
        with telemetry.trace("three"):
            hist.observe(0.55)  # same bucket, not slower: ignored
        exemplars = hist.exemplars()
        assert len(exemplars) == 1
        ((value, trace_id),) = exemplars.values()
        assert value == 0.6
        assert trace_id == t2.trace_id != t1.trace_id

    def test_no_exemplars_outside_traces(self):
        telemetry.enable_tracing()
        reg = metrics_mod.active()
        hist = reg.histogram("reghd_replay_batch_seconds", workload="w")
        hist.observe(0.5)
        assert hist.exemplars() == {}

    def test_exemplars_exported_in_json(self):
        telemetry.enable_tracing()
        reg = metrics_mod.active()
        hist = reg.histogram("reghd_replay_batch_seconds", workload="w")
        with telemetry.trace("one") as ctx:
            hist.observe(0.5)
        payload = telemetry.to_json(reg, meta=GOLDEN_META)
        entry = next(
            m
            for m in payload["metrics"]
            if m["name"] == "reghd_replay_batch_seconds"
        )
        assert entry["exemplars"] == [
            {"bucket": pytest.approx(entry["exemplars"][0]["bucket"]),
             "value": 0.5, "trace_id": ctx.trace_id}
        ]

    def test_disabling_tracing_stops_exemplars(self):
        telemetry.enable_tracing()
        telemetry.disable_tracing()
        reg = telemetry.enable()
        hist = reg.histogram("reghd_replay_batch_seconds", workload="w")
        hist.observe(0.5)
        assert hist.exemplars() == {}


class TestBitIdenticalPredictions:
    def test_streaming_predictions_identical_tracing_on_and_off(
        self, tiny_regression
    ):
        X_train, y_train, X_test, _ = tiny_regression
        cfg = RegHDConfig(dim=128, n_models=4, seed=3)

        def run() -> np.ndarray:
            stream = StreamingRegHD(X_train.shape[1], cfg)
            out = []
            for lo in range(0, len(y_train), 16):
                stream.update(X_train[lo : lo + 16], y_train[lo : lo + 16])
                out.append(stream.predict(X_test))
            return np.concatenate(out)

        baseline = run()
        telemetry.enable_tracing()
        traced = run()
        telemetry.disable_tracing()
        metrics_mod.disable()
        again = run()
        assert np.array_equal(baseline, traced)
        assert np.array_equal(baseline, again)

    def test_compiled_predictions_identical_tracing_on_and_off(
        self, tiny_regression
    ):
        X_train, y_train, X_test, _ = tiny_regression
        cfg = RegHDConfig(dim=128, n_models=2, seed=0)
        model = MultiModelRegHD(X_train.shape[1], cfg)
        model.partial_fit(X_train, y_train)
        plan = model.compile()
        baseline = plan.predict(X_test)
        tracer = telemetry.enable_tracing()
        with telemetry.trace("serve"):
            traced = plan.predict(X_test)
        assert np.array_equal(baseline, traced)
        # tile stage records attached to the trace root
        stages = {r.name for r in tracer.records}
        assert "tile/encode" in stages
        assert "tile/search" in stages


class TestStreamSpanTree:
    def test_fitted_update_encodes_once_under_predict(self):
        rng = np.random.default_rng(0)
        stream = StreamingRegHD(4, RegHDConfig(dim=128, n_models=4, seed=0))
        stream.update(rng.normal(size=(16, 4)), rng.normal(size=16))
        tracer = telemetry.enable_tracing()
        stream.update(rng.normal(size=(16, 4)), rng.normal(size=16))
        records = tracer.records
        (root,) = [r for r in records if r.parent_id is None]
        assert root.name == "stream/batch"
        assert {r.trace_id for r in records} == {root.trace_id}
        by_name = {r.name: r for r in records}
        (encode,) = [r for r in records if r.name == "encode"]
        predict, search, train = (
            by_name["predict"],
            by_name["search"],
            by_name["train"],
        )
        assert predict.parent_id == root.span_id
        assert encode.parent_id == predict.span_id
        assert search.parent_id == predict.span_id
        assert search.start >= encode.end
        assert train.parent_id == root.span_id
        assert train.start >= predict.end


def _golden_trace_tracer(clock) -> tracing_mod.Tracer:
    """The deterministic trace the golden Chrome export is built from."""
    tracer = telemetry.enable_tracing(tracing_mod.Tracer())
    with telemetry.trace("replay/batch", workload="wine", batch=0):
        with telemetry.span("guard"):
            pass
        with telemetry.span("predict"):
            with telemetry.span("encode"):
                pass
            with telemetry.span("search"):
                pass
    with telemetry.trace("replay/batch", workload="wine", batch=1):
        with telemetry.span("train"):
            pass
    return tracer


class TestChromeExport:
    def test_golden_chrome_trace(self, monkeypatch):
        monkeypatch.setattr(
            "repro.telemetry.timing.monotonic", _fake_clock()
        )
        tracer = _golden_trace_tracer(None)
        payload = tracing_mod.to_chrome_trace(tracer, meta=GOLDEN_META)
        golden = json.loads(
            (FIXTURES / "golden_chrome_trace.json").read_text()
        )
        assert payload == golden

    def test_complete_events_with_relative_microseconds(self, monkeypatch):
        monkeypatch.setattr(
            "repro.telemetry.timing.monotonic", _fake_clock()
        )
        tracer = _golden_trace_tracer(None)
        payload = tracing_mod.to_chrome_trace(tracer)
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        assert min(e["ts"] for e in payload["traceEvents"]) == 0.0
        assert all(e["tid"] == 0 for e in payload["traceEvents"])
        assert payload["otherData"]["n_traces"] == 2

    def test_write_chrome_trace_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.telemetry.timing.monotonic", _fake_clock()
        )
        tracer = _golden_trace_tracer(None)
        path = tracing_mod.write_chrome_trace(
            tracer, tmp_path / "trace.json", meta=GOLDEN_META
        )
        assert json.loads(path.read_text()) == tracing_mod.to_chrome_trace(
            tracer, meta=GOLDEN_META
        )
