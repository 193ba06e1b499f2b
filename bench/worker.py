"""Run one workload in this process and write its result file.

``python -m bench run`` starts this module as a fresh child process per
workload, with the BLAS thread count pinned and the library's ``REPRO_*``
settings cleared (see :func:`bench.__main__.child_env`).  It can also be
run directly for debugging::

    PYTHONPATH=src python -m bench.worker --workload serve_point \\
        --seed 0 --seconds 5 --trace 1 --result /tmp/serve_point.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from bench import ROOT, THREAD_VARS
from bench.harness import Hooks, Run, latency_summary, run_closed_loop
from bench.trace import Tracer, targets, tracing
from bench.workloads import WORKLOADS

#: end-to-end metrics and their units, in the order they are printed.
#: Tail percentiles are recorded per request kind in ``samples.by_kind``
#: but not gated: host phases spread them by up to 46 % between runs.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "rows_per_s": "rows/s",
    "rmse": "target",
    "peak_rss_mb": "MB",
}


#: per-layer ratios a workload measures itself; 0 where its path has none
RATIOS = ("engine.refresh.reuse_frac", "robust.gate.gated_frac")

#: reference blocks timed just before and just after each set-up
SETUP_REFS = 3


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except Exception:  # numpy builds differ in what they report
        return {"name": None, "version": None}


def _git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` (None outside a git checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_stamp() -> dict:
    """Where and with what a result was measured."""
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(ROOT),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blocks(run: Run, size: int, p50_kind: str) -> list[tuple[float, float]]:
    """``(p50_ms, rows_per_s)`` of each whole block of ``size``
    consecutive requests: the median latency of the block's ``p50_kind``
    requests, and the block's rows per second of service with every
    request counted.  A trailing partial block is dropped unless there is
    no whole one.  Every block must hold the same kinds in the same
    order, so every block does the same work."""
    size = min(size, len(run))
    whole = len(run) - len(run) % size
    kinds = np.asarray(run.kind)[:whole].reshape(-1, size)
    if (kinds != kinds[0]).any():
        raise ValueError(f"blocks of {size} requests differ in their kinds")
    latency = np.asarray(run.latency)[:whole].reshape(-1, size)
    rows = np.asarray(run.rows, dtype=np.float64)[:whole].reshape(-1, size)
    timed = kinds[0] == run.kinds.index(p50_kind)
    p50 = np.median(latency[:, timed], axis=1) * 1e3
    rate = rows.sum(axis=1) / latency.sum(axis=1)
    return list(zip(p50.tolist(), rate.tolist()))


def timing_metrics(
    found: list[tuple[float, float]],
    refs: list[tuple[float, float]],
    nominal: tuple[float, float],
) -> dict:
    """``p50_ms`` and ``rows_per_s`` at the nominal host speed.

    ``found`` are the :func:`blocks` of a run, ``refs`` the reference
    block that followed each, and ``nominal`` the reference block's
    ``(p50_ms, rows_per_s)`` at the nominal speed.  The host's speed
    changes in phases that can outlast a run, and the thread's CPU time
    slows with it, so neither wall nor CPU time compares runs.  A block's
    value over its reference block's value does: the reference does the
    same kind of work at the same moment.  Each metric is the median of
    that ratio over the blocks, times the nominal value.  A block is one
    repetition of the workload's request pattern, so every block does
    the same work, minority costs included.
    """
    if len(found) != len(refs):
        raise ValueError(f"{len(found)} blocks but {len(refs)} reference blocks")
    return {
        "p50_ms": nominal[0]
        * statistics.median(b[0] / r[0] for b, r in zip(found, refs)),
        "rows_per_s": nominal[1]
        * statistics.median(b[1] / r[1] for b, r in zip(found, refs)),
    }


def harness_metrics(run: Run, tracer: Tracer) -> dict:
    """The ``harness.*`` per-layer metrics: request counts, and how much
    request time the layers account for."""
    failed = len(run.errors)
    root = tracer.root_s
    return {
        "harness.requests_sent": (len(run), "count"),
        "harness.requests_succeeded": (len(run) - failed, "count"),
        "harness.requests_failed": (failed, "count"),
        "harness.unattributed_frac": (
            tracer.root_self_s / root if root else 0.0,
            "frac",
        ),
        "harness.trace_overhead_frac": (
            tracer.overhead_s / root if root else 0.0,
            "frac",
        ),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    *,
    setup_reps: int | None = None,
) -> tuple[dict, dict | None]:
    """Set up, measure and check one workload; returns the result record
    and, when traced, the Chrome trace.

    The window is split into ``setup_reps`` equal segments, each served
    by a freshly set-up workload, so the set-ups that ``setup_s`` takes
    the median of are spread over the run.  Each set-up time is scaled
    to the nominal host speed by the reference blocks timed just before
    and after it (see :func:`timing_metrics`).
    """
    cls = WORKLOADS[name]
    reps = cls.setup_reps if setup_reps is None else setup_reps
    nominal = (cls.ref_p50_ms, cls.ref_rows_per_s)
    found = targets() if trace else []
    tracer = Tracer() if trace else None
    hooks = Hooks(tracer.root, tracer.paused) if tracer else Hooks()
    setup_times, setup_speeds = [], []
    refs: list[tuple[float, float]] = []
    run = Run()
    window_s = 0.0
    workload = None
    try:
        for _ in range(reps):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload = cls(seed, workdir)
            around = [workload.reference_block() for _ in range(SETUP_REFS)]
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            around += [workload.reference_block() for _ in range(SETUP_REFS)]
            setup_speeds.append(statistics.median(r for _, r in around) / nominal[1])
            gc.collect()
            workload.begin_window()
            start = time.perf_counter()
            with tracing(tracer, found) if tracer else nullcontext():
                run_closed_loop(
                    workload.next_request,
                    workload.serve,
                    workload.check,
                    seconds / reps,
                    min_requests=workload.min_requests,
                    block=workload.block_requests,
                    run=run,
                    hooks=hooks,
                    after_block=lambda: refs.append(workload.reference_block()),
                )
            window_s += time.perf_counter() - start
        # Before the final checks: the reference path is not the system.
        peak_rss_mb = _peak_rss_mb()
        final = workload.finish()
        params = workload.params()
    finally:
        if workload is not None:
            workload.close()

    failed_checks = sum(not c["ok"] for c in final["checks"])
    busy = sum(run.latency)
    found_blocks = blocks(run, workload.block_requests, cls.p50_kind)
    metrics = {
        "setup_s": statistics.median(
            t * speed for t, speed in zip(setup_times, setup_speeds)
        ),
        **timing_metrics(found_blocks, refs, nominal),
        "rmse": final["rmse"],
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "schema": 1,
        "workload": name,
        "why": cls.why,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "machine": machine_stamp(),
        "params": params,
        "samples": {
            "requests": len(run),
            "window_s": window_s,
            "busy_frac": busy / window_s if window_s > 0 else None,
            "setup_reps": reps,
            "setup_s_each": setup_times,
            "setup_host_speed": setup_speeds,
            "blocks": len(found_blocks),
            "block_p50_ms": [p50 for p50, _ in found_blocks],
            "block_rows_per_s": [rate for _, rate in found_blocks],
            "ref_p50_ms": [p50 for p50, _ in refs],
            "ref_rows_per_s": [rate for _, rate in refs],
            "nominal_ref": {"p50_ms": nominal[0], "rows_per_s": nominal[1]},
            "by_kind": {
                kind: latency_summary(run.latencies(kind))
                for kind in sorted(run.kinds)
            },
            **final.get("counts", {}),
        },
        "metrics": {
            key: {"value": value, "unit": END_TO_END[key]}
            for key, value in metrics.items()
        },
        "checks": final["checks"],
        "errors": sorted(set(run.errors.values()))[:5],
        "attempted": len(run) + len(final["checks"]),
        "failed": len(run.errors) + failed_checks,
    }
    result["correct"] = result["failed"] == 0
    chrome = None
    if tracer is not None:
        layers = tracer.layer_metrics(found)
        layers.update(
            {k: (final.get("extras", {}).get(k, 0.0), "frac") for k in RATIOS}
        )
        layers.update(harness_metrics(run, tracer))
        result["layers"] = {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in layers.items()
        }
        chrome = tracer.chrome_trace(
            found, {"workload": name, "seed": seed, "seconds": seconds}
        )
    return result, chrome


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    args.result.parent.mkdir(parents=True, exist_ok=True)
    result, chrome = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        str(args.result.parent),
    )
    if chrome is not None:
        trace_path = args.result.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(chrome))
        result["chrome_trace"] = trace_path.name
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
