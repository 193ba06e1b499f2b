"""SLO windows, error-budget burn rates, and the live `repro top` view.

PR 9's :class:`QualityGate` is a pass/fail verdict computed once at the
end of a workload.  This module turns the same limits into
*continuously evaluated* service-level objectives: each gate limit
becomes an :class:`SLOWindow` over the last N batches, and the window's
**burn rate** — the fraction of the rolling error budget currently
being consumed — updates on every observation.  A burn rate of 1.0
means the run is consuming its budget exactly as fast as allowed;
above 1.0 the budget is burning down and the gate will eventually
breach.

:class:`SLOTracker` bundles the windows derived from one gate, exports
``reghd_slo_burn_rate`` gauges / ``reghd_slo_breaches_total`` counters,
and emits structured events (which the flight recorder retains) on
breach transitions.  :class:`SnapshotWriter` persists console snapshots
atomically so a separate ``repro top`` process can attach to a running
replay; :func:`render_top` turns a snapshot into the refreshing ANSI
view.

The tracker duck-types its gate (it only reads ``rmse_ceiling``,
``coverage_floor`` and ``p99_latency_ms``) so the telemetry package
keeps its no-library-imports rule — it never imports
:mod:`repro.workloads`.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time
from collections import deque

from repro.telemetry import flight, metrics

__all__ = [
    "SLOTracker",
    "SLOWindow",
    "SnapshotWriter",
    "read_snapshot",
    "render_top",
    "run_top",
]

#: fraction of observations in a window allowed to violate the
#: objective before the budget is exhausted (SRE-style 10% default).
DEFAULT_BUDGET = 0.1

#: rolling window length, in observations (batches).
DEFAULT_WINDOW = 64

SNAPSHOT_KIND = "reghd-slo-snapshot"


class SLOWindow:
    """One objective evaluated over a rolling window of observations.

    An observation is *bad* when it exceeds ``ceiling`` or undercuts
    ``floor`` (NaN values count as bad — an unmeasurable objective is a
    violated one).  The burn rate is ``bad_fraction / budget``: the
    multiple of the sustainable error rate the window is currently
    running at.  The bad-count is maintained incrementally, so each
    observation is O(1).
    """

    __slots__ = ("name", "ceiling", "floor", "budget", "_ring", "_bad", "last")

    def __init__(
        self,
        name: str,
        *,
        ceiling: float | None = None,
        floor: float | None = None,
        budget: float = DEFAULT_BUDGET,
        window: int = DEFAULT_WINDOW,
    ):
        if ceiling is None and floor is None:
            raise ValueError("SLOWindow needs a ceiling or a floor")
        if not 0.0 < budget <= 1.0:
            raise ValueError(f"budget must be in (0, 1], got {budget}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.name = str(name)
        self.ceiling = None if ceiling is None else float(ceiling)
        self.floor = None if floor is None else float(floor)
        self.budget = float(budget)
        self._ring: deque[bool] = deque(maxlen=int(window))
        self._bad = 0
        self.last: float = math.nan

    def observe(self, value: float) -> float:
        """Record one observation; returns the updated burn rate."""
        value = float(value)
        bad = (
            not math.isfinite(value)
            or (self.ceiling is not None and value > self.ceiling)
            or (self.floor is not None and value < self.floor)
        )
        if len(self._ring) == self._ring.maxlen and self._ring[0]:
            self._bad -= 1
        self._ring.append(bad)
        if bad:
            self._bad += 1
        self.last = value
        return self.burn_rate

    @property
    def total(self) -> int:
        return len(self._ring)

    @property
    def bad(self) -> int:
        return self._bad

    @property
    def burn_rate(self) -> float:
        """Bad fraction over the window, as a multiple of the budget."""
        if not self._ring:
            return 0.0
        return (self._bad / len(self._ring)) / self.budget

    @property
    def breaching(self) -> bool:
        """True when the window burns faster than its budget allows."""
        return self.burn_rate > 1.0

    def state(self) -> dict:
        """JSON-ready summary for snapshots and dumps."""
        return {
            "gate": self.name,
            "ceiling": self.ceiling,
            "floor": self.floor,
            "budget": self.budget,
            "window": self._ring.maxlen,
            "total": self.total,
            "bad": self._bad,
            "burn_rate": round(self.burn_rate, 6),
            "breaching": self.breaching,
            "last": None if math.isnan(self.last) else self.last,
        }


class SLOTracker:
    """The rolling windows derived from one quality gate.

    ``observe(rmse=..., coverage=..., latency_ms=...)`` feeds each
    keyword into its window (limits the gate leaves unset simply have
    no window).  Every observation refreshes the
    ``reghd_slo_burn_rate{gate=,workload=}`` gauge; a window crossing
    into breach increments ``reghd_slo_breaches_total``, records an
    ``slo_breach`` event, and leaves a burn-rate sample in the armed
    flight recorder.
    """

    def __init__(self, workload: str, windows: dict[str, SLOWindow]):
        self.workload = str(workload)
        self.windows = dict(windows)
        self._was_breaching = {name: False for name in self.windows}

    @classmethod
    def from_gate(
        cls,
        gate: object,
        *,
        workload: str = "",
        budget: float = DEFAULT_BUDGET,
        window: int = DEFAULT_WINDOW,
    ) -> "SLOTracker":
        """Derive windows from a gate's set limits (duck-typed).

        Reads ``rmse_ceiling``, ``coverage_floor`` and ``p99_latency_ms``
        attributes; any of them may be absent or None.
        """
        windows: dict[str, SLOWindow] = {}
        rmse = getattr(gate, "rmse_ceiling", None)
        if rmse is not None:
            windows["rmse"] = SLOWindow(
                "rmse", ceiling=rmse, budget=budget, window=window
            )
        coverage = getattr(gate, "coverage_floor", None)
        if coverage is not None:
            windows["coverage"] = SLOWindow(
                "coverage", floor=coverage, budget=budget, window=window
            )
        latency = getattr(gate, "p99_latency_ms", None)
        if latency is not None:
            windows["latency_ms"] = SLOWindow(
                "latency_ms", ceiling=latency, budget=budget, window=window
            )
        return cls(workload, windows)

    def observe(self, **values: float) -> dict[str, float]:
        """Feed named observations; returns the updated burn rates.

        Unknown names are ignored so callers can pass everything they
        measured without checking which limits the gate set.
        """
        registry = metrics.active()
        recorder = flight.active_recorder()
        burns: dict[str, float] = {}
        for name, value in values.items():
            window = self.windows.get(name)
            if window is None:
                continue
            burn = window.observe(value)
            burns[name] = burn
            if registry is not None:
                registry.gauge(
                    "reghd_slo_burn_rate",
                    gate=name,
                    workload=self.workload,
                ).set(burn)
            if recorder is not None:
                recorder.record_sample(
                    "burn_rate", burn, gate=name, workload=self.workload
                )
            breaching = window.breaching
            if breaching and not self._was_breaching[name]:
                if registry is not None:
                    registry.counter(
                        "reghd_slo_breaches_total",
                        gate=name,
                        workload=self.workload,
                    ).inc()
                    registry.record_event(
                        "slo_breach",
                        gate=name,
                        workload=self.workload,
                        burn_rate=round(burn, 6),
                        bad=window.bad,
                        window=window.total,
                    )
            self._was_breaching[name] = breaching
        return burns

    @property
    def breaching(self) -> list[str]:
        """Names of windows currently in breach, sorted."""
        return sorted(
            name for name, w in self.windows.items() if w.breaching
        )

    def state(self) -> list[dict]:
        """Window states, sorted by gate name (snapshot-ready)."""
        return [self.windows[name].state() for name in sorted(self.windows)]


# -- snapshots: the wire between a replay run and `repro top` ----------------


class SnapshotWriter:
    """Atomically persists console snapshots for `repro top` to tail.

    Writes go to a sibling temp file then :func:`os.replace`, so an
    attached reader never observes a torn snapshot.  ``every`` throttles
    writes to one per N calls (the final state can be flushed with
    ``force=True``).
    """

    def __init__(self, path: str | pathlib.Path, *, every: int = 1):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.path = pathlib.Path(path)
        self.every = int(every)
        self._calls = 0
        self.writes = 0

    def write(self, snapshot: dict, *, force: bool = False) -> bool:
        """Persist ``snapshot`` if due; returns True when written."""
        self._calls += 1
        if not force and (self._calls - 1) % self.every != 0:
            return False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
        )
        os.replace(tmp, self.path)
        self.writes += 1
        return True


def read_snapshot(path: str | pathlib.Path) -> dict:
    """Load a console snapshot written by :class:`SnapshotWriter`."""
    payload = json.loads(pathlib.Path(path).read_text())
    if payload.get("kind") != SNAPSHOT_KIND:
        raise ValueError(
            f"{path} is not a {SNAPSHOT_KIND} file "
            f"(kind={payload.get('kind')!r})"
        )
    return payload


# -- rendering ---------------------------------------------------------------

_BAR_WIDTH = 20


def _fmt(value: object, unit: str = "") -> str:
    if value is None:
        return "--"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "--"
        return f"{value:.2f}{unit}"
    return f"{value}{unit}"


def _burn_bar(burn: float) -> str:
    """A bracketed bar that fills at burn 1.0 and overflows with '!'."""
    filled = min(_BAR_WIDTH, int(round(min(burn, 1.0) * _BAR_WIDTH)))
    bar = "#" * filled + "." * (_BAR_WIDTH - filled)
    marker = " !" if burn > 1.0 else "  "
    return f"[{bar}]{marker}"


def render_top(snapshot: dict) -> str:
    """Render one console snapshot as a plain-text/ANSI frame.

    Pure function of the snapshot (no clock, no colour detection) so the
    frame is testable; the caller prepends the screen-clear escape when
    refreshing in place.
    """
    lines: list[str] = []
    workload = snapshot.get("workload") or "?"
    batches = snapshot.get("batches", 0)
    rows = snapshot.get("rows", 0)
    lines.append(
        f"reghd top — workload {workload}   "
        f"batch {batches}   rows {rows}"
    )
    lines.append(
        f"  qps {_fmt(snapshot.get('qps'))}   "
        f"p50 {_fmt(snapshot.get('p50_ms'), 'ms')}   "
        f"p99 {_fmt(snapshot.get('p99_ms'), 'ms')}"
    )
    lines.append("")
    slo = snapshot.get("slo") or []
    if slo:
        lines.append("  SLO budget burn (window · bad/total · burn)")
        for entry in slo:
            burn = float(entry.get("burn_rate", 0.0))
            lines.append(
                f"    {entry.get('gate', '?'):<12}"
                f"{_burn_bar(burn)} "
                f"{entry.get('bad', 0)}/{entry.get('total', 0)}"
                f" · {burn:5.2f}x"
                + ("  BREACH" if entry.get("breaching") else "")
            )
    else:
        lines.append("  (no SLO gate attached)")
    kernels = snapshot.get("kernels") or []
    if kernels:
        lines.append("")
        lines.append("  kernel calls")
        for entry in kernels:
            lines.append(
                f"    {entry.get('kernel', '?'):<32} "
                f"{int(entry.get('calls', 0))}"
            )
    return "\n".join(lines) + "\n"


def registry_console_stats(registry: metrics.MetricsRegistry) -> dict:
    """The kernel section for a snapshot, from live counters."""
    kernels: dict[str, int] = {}
    for metric in registry.metrics():
        if metric.name == "reghd_kernel_calls_total":
            labels = dict(metric.labels)
            key = f"{labels.get('backend', '?')}/{labels.get('kernel', '?')}"
            kernels[key] = kernels.get(key, 0) + int(metric.value)
    return {
        "kernels": [
            {"kernel": name, "calls": calls}
            for name, calls in sorted(kernels.items())
        ],
    }


def run_top(
    path: str | pathlib.Path,
    *,
    interval: float = 1.0,
    iterations: int | None = None,
    clear: bool = True,
    out=None,
) -> int:
    """Tail a snapshot file and re-render until interrupted.

    ``iterations=None`` loops until Ctrl-C; a number renders that many
    frames (``--once`` passes 1 and disables clearing).  Missing files
    render a waiting notice — `repro top` can be started before the
    replay.  Returns the number of frames rendered.
    """
    import sys

    if out is None:
        out = sys.stdout
    path = pathlib.Path(path)
    frames = 0
    try:
        while iterations is None or frames < iterations:
            try:
                frame = render_top(read_snapshot(path))
            except FileNotFoundError:
                frame = f"reghd top — waiting for snapshot {path}\n"
            except (ValueError, json.JSONDecodeError) as exc:
                frame = f"reghd top — unreadable snapshot: {exc}\n"
            if clear:
                out.write("\x1b[2J\x1b[H")
            out.write(frame)
            out.flush()
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
