"""Outside-in per-layer tracing for the benchmark.

The program under test carries no benchmark instrumentation.  Instead,
:func:`tracing` replaces each public callable in :func:`targets` with a
wrapper, on the class or module where callers look it up, and puts the
original attributes back when it exits.  Each wrapper
records one span per call on a :class:`Tracer`: name, layer, start,
duration, the harness request it belongs to, and the rows and bytes it
handled.

A span's *self time* is its duration minus the time its child spans
cover.  The wrapper's own bookkeeping is timed as well: it is excluded
from the parent's self time and reported as tracing overhead.  The
root span of each request is opened by the harness; its self time is
request time that no layer accounts for (``harness.unattributed_frac``).
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: spans kept for the Chrome trace file; aggregates always cover every span.
MAX_EVENTS = 50_000


@dataclass(frozen=True)
class Target:
    """One public callable to wrap: ``owner.attr`` reported as ``name``."""

    layer: str
    owner: object
    attr: str
    name: str
    #: whether the callable takes row-indexed input worth counting
    rows: bool = True

    @property
    def counts_bytes(self) -> bool:
        """Runtime kernels also report the bytes of their operands."""
        return self.layer == "runtime"


def targets() -> list[Target]:
    """Every wrapped callable, layer by layer, outermost layer first."""
    from repro.core.multi import MultiModelRegHD
    from repro.encoding.nonlinear import NonlinearEncoder
    from repro.engine.plan import CompiledPlan
    from repro.reliability.checkpoint import CheckpointManager
    from repro.reliability.guards import InputGuard
    from repro.reliability.resilient import ResilientStreamingRegHD
    from repro.reliability.watchdog import Watchdog
    from repro.robust.conformal import AdaptiveConformal
    from repro.robust.gate import MahalanobisGate
    from repro.runtime import (
        DualCopy,
        KernelBackend,
        PackedBackend,
        PackedV2Backend,
    )
    from repro.streaming import StreamingRegHD

    found = [
        Target("engine", CompiledPlan, "predict", "engine.CompiledPlan.predict"),
        Target(
            "engine", CompiledPlan, "refresh", "engine.CompiledPlan.refresh", False
        ),
        Target(
            "engine",
            CompiledPlan,
            "encoder_operands",
            "engine.CompiledPlan.encoder_operands",
            False,
        ),
    ]
    # Kernels are named after the backend whose implementation runs: the
    # base class is the dense reference that DenseBackend inherits.
    backends = {
        KernelBackend: "dense",
        PackedBackend: "packed",
        PackedV2Backend: "packed_v2",
    }
    for kernel in (
        "encode_pack",
        "cluster_similarities",
        "confidences",
        "model_dots",
        "weighted_prediction",
        "weighted_model_step",
        "segment_delta",
    ):
        for backend, label in backends.items():
            if kernel in vars(backend):
                found.append(
                    Target("runtime", backend, kernel, f"runtime.{label}.{kernel}")
                )
    found += [
        Target(
            "runtime", DualCopy, "rebinarize", "runtime.DualCopy.rebinarize", False
        ),
        Target(
            "runtime", DualCopy, "update_all", "runtime.DualCopy.update_all", False
        ),
        Target(
            "encoding",
            NonlinearEncoder,
            "encode_batch",
            "encoding.NonlinearEncoder.encode_batch",
        ),
    ]
    for method in ("fit_epoch", "partial_fit", "predict"):
        found.append(
            Target(
                "core", MultiModelRegHD, method, f"core.MultiModelRegHD.{method}"
            )
        )
    found += [
        Target("streaming", StreamingRegHD, "update", "streaming.StreamingRegHD.update"),
        Target("streaming", StreamingRegHD, "predict", "streaming.StreamingRegHD.predict"),
        Target("robust", MahalanobisGate, "filter", "robust.MahalanobisGate.filter"),
        Target("robust", AdaptiveConformal, "observe", "robust.AdaptiveConformal.observe"),
        Target("reliability", InputGuard, "check", "reliability.InputGuard.check"),
        Target(
            "reliability",
            CheckpointManager,
            "save",
            "reliability.CheckpointManager.save",
            False,
        ),
        Target(
            "reliability", Watchdog, "update", "reliability.Watchdog.update", False
        ),
        Target(
            "reliability",
            ResilientStreamingRegHD,
            "update",
            "reliability.ResilientStreamingRegHD.update",
        ),
    ]
    return found


def _rows(args: tuple, result: object, kernel: bool) -> int:
    """Rows handled: the length of the first array argument; a kernel
    given none (it takes query and operand objects) counts its result."""
    for value in args:
        if isinstance(value, np.ndarray) and value.ndim:
            return int(value.shape[0])
    if kernel and isinstance(result, np.ndarray) and result.ndim:
        return int(result.shape[0])
    return 0


def _arrays(value: object, depth: int = 1) -> Iterator[np.ndarray]:
    """``value`` if it is an array, else the arrays it holds ``depth``
    levels down (tuple items, slots or instance attributes)."""
    if isinstance(value, np.ndarray):
        yield value
        return
    if not depth or value is None or isinstance(value, (int, float, str)):
        return
    if isinstance(value, (tuple, list)):
        members = list(value)
    else:
        names = getattr(type(value), "__slots__", ()) or getattr(
            value, "__dict__", {}
        )
        members = [getattr(value, name, None) for name in names]
    for member in members:
        yield from _arrays(member, depth - 1)


def _nbytes(args: tuple, result: object) -> int:
    """Computed bytes of a kernel call: array arguments, the arrays held
    directly by argument objects (queries, operands, scratch), and the
    result."""
    seen = {id(a): a.nbytes for v in (*args, result) for a in _arrays(v)}
    return sum(seen.values())


class _Open:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


class Tracer:
    """Collects spans from one thread; calls from other threads pass through."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.thread = threading.get_ident()
        self.active = False
        self.request: int | None = None
        self._stack: list[_Open] = []
        #: name -> [calls, self_s, rows, bytes]
        self.totals: dict[str, list] = {}
        self.root_s = 0.0
        self.root_self_s = 0.0
        self.overhead_s = 0.0
        self.events: list[tuple] = []
        self.t0 = clock()

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, count_bytes: bool, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name``."""
        if not self.active or threading.get_ident() != self.thread:
            return fn(*args, **kwargs)
        entry = self.clock()
        stack = self._stack
        frame = _Open(name)
        stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
        rows = _rows(args, result, count_bytes)
        nbytes = _nbytes(args, result) if count_bytes else 0
        dur = end - start
        total = self.totals.setdefault(name, [0, 0.0, 0, 0])
        total[0] += 1
        total[1] += dur - frame.child
        total[2] += rows
        total[3] += nbytes
        if len(self.events) < MAX_EVENTS:
            self.events.append((name, start, dur, self.request, rows))
        exit_ = self.clock()
        self.overhead_s += (start - entry) + (exit_ - end)
        if stack:
            stack[-1].child += exit_ - entry
        return result

    @contextmanager
    def root(self, request: int, kind: str):
        """The harness span of one request; library spans nest under it."""
        if not self.active:
            yield
            return
        frame = _Open(f"request.{kind}")
        self._stack.append(frame)
        self.request = request
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.request = None
            self.root_s += end - start
            self.root_self_s += end - start - frame.child
            if len(self.events) < MAX_EVENTS:
                self.events.append((frame.name, start, end - start, request, 0))

    @contextmanager
    def paused(self):
        """Let harness-side calls (checks, probes) through unrecorded."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, found: list[Target]) -> dict[str, tuple[float, str]]:
        """``{metric: (value, unit)}`` for every wrapped callable."""
        out: dict[str, tuple[float, str]] = {}
        for target in found:
            name = target.name
            calls, self_s, rows, nbytes = self.totals.get(name, (0, 0.0, 0, 0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            if target.rows:
                out[f"{name}.rows"] = (rows, "count")
            if target.counts_bytes:
                out[f"{name}.bytes"] = (nbytes, "B")
        return out

    def chrome_trace(self, found: list[Target], meta: dict) -> dict:
        """Chrome trace-event JSON (open in https://ui.perfetto.dev)."""
        layer = {t.name: t.layer for t in found}
        events = []
        for name, start, dur, request, rows in self.events:
            events.append(
                {
                    "name": name,
                    "cat": layer.get(name, "harness"),
                    "ph": "X",
                    "ts": round((start - self.t0) * 1e6, 3),
                    "dur": round(dur * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"request": request, "rows": rows},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": meta,
        }


def _wrap(tracer: Tracer, target: Target, fn):
    name, count_bytes = target.name, target.counts_bytes

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, count_bytes, fn, args, kwargs)

    return wrapper


@contextmanager
def tracing(tracer: Tracer, found: list[Target]):
    """Patch every target, record for the duration of the block, then put
    every original attribute back.  An attribute a class only inherits is
    shadowed on that class and deleted again afterwards."""
    saved = []
    try:
        for target in found:
            owner, attr = target.owner, target.attr
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else None
            setattr(owner, attr, _wrap(tracer, target, getattr(owner, attr)))
            saved.append((owner, attr, own, original))
        tracer.active = True
        yield tracer
    finally:
        tracer.active = False
        for owner, attr, own, original in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
