"""Command line: ``python3 -m bench run [options]``.

Runs each selected workload in its own fresh child process, one after
another, prints every end-to-end metric (or, with ``--trace``, every
per-layer metric) with its unit, and ends each workload's report with
one JSON line::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

Result files (and Chrome traces) go to ``--out``.  The exit code is
non-zero when any workload failed a request or a correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench import ROOT, THREAD_VARS
from bench.workloads import WORKLOADS

#: a workload process may run this long past its measured window (a run
#: takes about 7 s more), so a hung run ends well within 180 s
CHILD_GRACE_S = 100.0


def child_env() -> dict:
    """The workload process environment: one BLAS thread, no ``REPRO_*``
    settings (they select backends and tuning), the library on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    return env


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, trace: bool) -> dict:
    """Print one workload's metrics; returns the contract JSON object."""
    section = "layers" if trace else "metrics"
    metrics = result[section]
    samples = result["samples"]
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{samples['requests']} requests in {samples['window_s']:.1f} s  "
        f"failed {result['failed']}/{result['attempted']}"
    )
    if not trace:
        for kind, stats in samples["by_kind"].items():
            tail = (
                f"  p{stats['tail_q']} {stats['tail_ms']:.4g} ms"
                if stats["tail_q"] > 50
                else ""
            )
            print(
                f"   {kind:8s} n={stats['n']:<6d} p50 {stats['p50_ms']:.4g} ms"
                + tail
            )
    for check in result["checks"]:
        print(f"   check {check['name']}: {'ok' if check['ok'] else 'FAILED'}"
              f" ({check['detail']})")
    for error in result["errors"]:
        print(f"   error: {error}")
    width = max(len(k) for k in metrics)
    for key, entry in metrics.items():
        print(f"   {key:{width}s}  {_format(entry['value'])} {entry['unit']}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = args.out if args.out.is_absolute() else ROOT / args.out
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for name in args.workload or list(WORKLOADS):
        stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
        kind = "trace" if args.trace else "plain"
        path = out / f"{name}-seed{args.seed}-{kind}-{stamp}.json"
        cmd = [
            sys.executable, "-m", "bench.worker",
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--result", str(path),
        ]
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=child_env(),
                stdout=sys.stderr,
                timeout=args.seconds + CHILD_GRACE_S,
            )
        except subprocess.TimeoutExpired:
            print(f"bench: {name} timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0 or not path.exists():
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        line = report(json.loads(path.read_text()), bool(args.trace))
        print(json.dumps(line), flush=True)
        if not line["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run workloads and print metrics")
    p_run.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all, in declared order)",
    )
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--seconds",
        type=float,
        help="measured window per workload; only run_seconds in "
        "BENCHMARK.json is accepted, so every result set is comparable",
    )
    p_run.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="record per-layer spans and print per-layer metrics",
    )
    p_run.add_argument("--out", type=Path, default=Path(".bench_results"))
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_seconds = float(declared["run_seconds"])
    if args.seconds not in (None, run_seconds):
        parser.error(f"--seconds must be run_seconds ({run_seconds:g})")
    args.seconds = run_seconds
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
