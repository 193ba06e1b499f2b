"""Load generation and request accounting for the benchmark.

One client in one thread issues a request, waits for it, checks the
response and issues the next (a closed loop).  The benchmark's host is a
few vCPUs of a shared machine whose speed changes in phases lasting
seconds to minutes; an open loop's queueing delays amplified those
phases (1-row predicts spread by 40 % between runs), so every workload
is a closed loop, and each block of requests is followed by a reference
block that measures the host's speed (see :mod:`bench.reference`).

Everything here reads time through a clock callable, so the accounting
is testable on a fake clock.
"""

from __future__ import annotations

import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager

import numpy as np


@dataclass(frozen=True)
class Request:
    """One request: its kind, the rows it carries, and its input."""

    kind: str
    rows: int
    payload: object = None


@dataclass
class Run:
    """Every request of a run, in issue order, as compact columns.

    A run holds up to a few hundred thousand requests.  As objects they
    took tens of megabytes, which grew with the run's speed and showed
    in ``peak_rss_mb``; as columns they take 13 bytes each.
    """

    kinds: list[str] = field(default_factory=list)
    #: per request: index into ``kinds``, rows, latency in seconds
    kind: array = field(default_factory=lambda: array("B"))
    rows: array = field(default_factory=lambda: array("I"))
    latency: array = field(default_factory=lambda: array("d"))
    #: failed requests: id -> what went wrong
    errors: dict[int, str] = field(default_factory=dict)

    def add(self, kind: str, rows: int, latency: float, error: str | None):
        if kind not in self.kinds:
            self.kinds.append(kind)
        self.kind.append(self.kinds.index(kind))
        self.rows.append(rows)
        self.latency.append(latency)
        if error is not None:
            self.errors[len(self.latency) - 1] = error

    def __len__(self) -> int:
        return len(self.latency)

    def latencies(self, kind: str) -> np.ndarray:
        """Latencies of one kind of request, in seconds."""
        if kind not in self.kinds:
            return np.empty(0)
        codes = np.frombuffer(self.kind, dtype=np.uint8)
        return np.asarray(self.latency)[codes == self.kinds.index(kind)]


#: ``serve(request) -> output`` is the timed call into the system.
Serve = Callable[[Request], object]
#: ``check(request, output) -> bool`` validates a response, untimed.
Check = Callable[[Request, object], bool]
#: ``scope(request_id, kind)`` wraps each timed call (a trace root span).
Scope = Callable[[int, str], ContextManager]


def _no_scope(rid: int, kind: str) -> ContextManager:
    return nullcontext()


@dataclass(frozen=True)
class Hooks:
    """Optional wrappers a tracer supplies: ``scope`` around each timed
    call and ``quiet()`` around each untimed check."""

    scope: Scope = _no_scope
    quiet: Callable[[], ContextManager] = nullcontext


def _serve_one(
    clock: Callable[[], float],
    rid: int,
    request: Request,
    serve: Serve,
    check: Check,
    hooks: Hooks,
) -> tuple[float, str | None]:
    """Time one request: ``(latency, error)``.  Any exception or failed
    check is the request's error."""
    begin = clock()
    try:
        with hooks.scope(rid, request.kind):
            out = serve(request)
    except Exception as exc:  # a failed request is counted, not fatal
        return clock() - begin, repr(exc)
    latency = clock() - begin
    try:
        with hooks.quiet():
            ok = bool(check(request, out))
        return latency, None if ok else "response check failed"
    except Exception as exc:
        return latency, repr(exc)


def run_closed_loop(
    next_request: Callable[[int], Request],
    serve: Serve,
    check: Check,
    seconds: float,
    *,
    min_requests: int = 1,
    block: int = 1,
    run: Run | None = None,
    clock: Callable[[], float] = time.perf_counter,
    hooks: Hooks = Hooks(),
    after_block: Callable[[], None] | None = None,
) -> Run:
    """One client: issue, wait, repeat until ``seconds`` have elapsed, at
    least ``min_requests`` requests were served, and the requests served
    make whole blocks of ``block``.  Records go to ``run`` (a new one by
    default).  ``after_block``, if given, runs after every whole block,
    inside the window but outside any request."""
    run = Run() if run is None else run
    start = clock()
    rid = 0
    while rid < min_requests or rid % block or clock() - start < seconds:
        request = next_request(rid)
        latency, error = _serve_one(clock, rid, request, serve, check, hooks)
        run.add(request.kind, request.rows, latency, error)
        rid += 1
        if after_block is not None and rid % block == 0:
            after_block()
    return run


def percentile_ms(values: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of second-valued samples, in milliseconds."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(values, q) * 1e3)


def latency_summary(latencies: np.ndarray) -> dict:
    """Sample count, latency percentiles, and the tail: the highest of
    p99/p90/p75/p50 with at least ten samples beyond it."""
    out = {"n": len(latencies)}
    out.update({f"p{q}_ms": percentile_ms(latencies, q) for q in (50, 90, 99)})
    tail = next(
        (q for q in (99, 90, 75, 50) if len(latencies) * (100 - q) / 100 >= 10),
        50,
    )
    out["tail_q"] = tail
    out["tail_ms"] = percentile_ms(latencies, tail)
    return out
