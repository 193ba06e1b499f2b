"""Closed-loop request accounting on a fake clock, and the timing metrics
drawn from the records."""

import numpy as np
import pytest

from bench.harness import Request, Run, run_closed_loop
from bench.worker import blocks, timing_metrics


class FakeClock:
    """Time moves only when a request works."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_closed_loop_issues_the_next_request_on_completion():
    clock = FakeClock()

    def serve(request):
        clock.t += 0.3
        return None

    run = run_closed_loop(
        lambda rid: Request("fit", 10), serve, lambda r, o: True, 1.0, clock=clock
    )
    assert len(run) == 4  # issued at 0, 0.3, 0.6, 0.9
    assert list(run.latency) == pytest.approx([0.3] * 4)
    assert list(run.rows) == [10] * 4 and run.errors == {}


def test_closed_loop_serves_min_requests_in_whole_blocks():
    clock = FakeClock()

    def serve(request):
        clock.t += 1.0

    def loop(**kwargs):
        return run_closed_loop(
            lambda rid: Request("fit", 1),
            serve,
            lambda r, o: True,
            0.5,
            clock=clock,
            **kwargs,
        )

    assert len(loop(min_requests=3)) == 3
    assert len(loop(min_requests=3, block=2)) == 4
    # Later segments append to the same run.
    run = loop()
    assert len(loop(run=run, block=2)) == 3


def test_failures_are_counted_not_raised():
    clock = FakeClock()

    def serve(request):
        clock.t += 0.5
        if request.payload == 0:
            raise RuntimeError("boom")
        return np.array([np.nan])

    run = run_closed_loop(
        lambda rid: Request("predict", 1, rid),
        serve,
        lambda r, out: bool(np.isfinite(out).all()),
        1.0,
        clock=clock,
    )
    assert len(run) == 2 and sorted(run.errors) == [0, 1]
    assert "boom" in run.errors[0]
    assert run.errors[1] == "response check failed"


def test_blocks_time_the_p50_kind_and_count_every_request():
    # Two blocks of three 8-row predicts and one 32-row update; the second
    # block runs everything twice as slow.
    pattern = [("predict", 8), ("predict", 8), ("predict", 8), ("update", 32)]
    run = Run()
    for scale in (1.0, 2.0):
        for kind, rows in pattern:
            latency = (0.020 if kind == "update" else 0.001) * scale
            run.add(kind, rows, latency, None)
    # A trailing partial block is dropped.
    run.add("predict", 8, 0.0001, None)
    run.add("predict", 8, 0.0001, None)

    fast = 56 / (0.020 + 3 * 0.001)
    assert blocks(run, 4, "predict") == pytest.approx(
        [(1.0, fast), (2.0, fast / 2)]
    )
    assert list(run.latencies("update")) == pytest.approx([0.020, 0.040])

    # Fewer requests than one block: the whole run is the block.
    short = Run()
    short.add("predict", 8, 0.001, None)
    short.add("predict", 8, 0.001, None)
    assert blocks(short, 4, "predict") == pytest.approx([(1.0, 8000.0)])

    # Blocks that hold different work cannot be compared.
    with pytest.raises(ValueError):
        blocks(run, 3, "predict")


def test_after_block_runs_once_per_whole_block_outside_requests():
    clock = FakeClock()
    events = []

    def serve(request):
        events.append("request")
        clock.t += 1.0

    def after_block():
        events.append("reference")
        clock.t += 5.0

    run = run_closed_loop(
        lambda rid: Request("predict", 1),
        serve,
        lambda r, o: True,
        3.0,
        block=2,
        clock=clock,
        after_block=after_block,
    )
    assert events == ["request", "request", "reference"]
    assert list(run.latency) == [1.0, 1.0]


def test_timing_metrics_cancel_the_host_speed():
    # Each block is followed by a reference block; in the second pair the
    # host runs both twice as slow, in the third the code got 10 % slower.
    found = [(1.0, 1000.0), (2.0, 500.0), (1.1, 1000 / 1.1)]
    refs = [(0.5, 2000.0), (1.0, 1000.0), (0.5, 2000.0)]
    nominal = (0.4, 2500.0)
    assert timing_metrics(found, refs, nominal) == pytest.approx(
        {"p50_ms": 0.8, "rows_per_s": 1250.0}
    )
    # Over a whole run in a slow phase the metrics read the same.
    slow = [(2 * p, r / 2) for p, r in found]
    slow_refs = [(2 * p, r / 2) for p, r in refs]
    assert timing_metrics(slow, slow_refs, nominal) == pytest.approx(
        timing_metrics(found, refs, nominal)
    )
    with pytest.raises(ValueError):
        timing_metrics(found, refs[:2], nominal)
