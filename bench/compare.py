"""Compare two sets of benchmark result files against the declared bounds.

Usage::

    python3 -m bench.compare BASE_DIR CHANGE_DIR

Each directory holds result files written by ``python3 -m bench run
--out DIR`` (parent and change, or set A and set B of the same code).
For every workload and end-to-end metric it prints each set's median and
quartiles, the change in median, and a verdict under the metric's bound
in ``BENCHMARK.json``:

* ``regression`` - the change's median is worse than the base median by
  more than the bound;
* ``unresolved`` - a set's quartile spread, as a share of its median,
  exceeds the bound, unless every run of the change reads better than
  every run of the base;
* ``ok`` otherwise.

It also prints traced-versus-untraced overhead for sets that hold both.
It refuses (exit 2) to compare sets measured on different machines, with
different seeds, or with a workload run at different windows or
parameters; it exits 1 on any regression or unresolved metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from bench import ROOT

#: machine-stamp keys that must agree; the git commit may differ.
MACHINE_KEYS = (
    "nproc",
    "cpus_allowed",
    "cpu_model",
    "python",
    "numpy",
    "blas",
    "blas_threads",
)


def load_results(directory: Path) -> list[dict]:
    """Every result record in ``directory`` (Chrome traces skipped)."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("*.json"))
        if not path.name.endswith(".trace.json")
    ]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _machine(result: dict) -> str:
    stamp = result.get("machine", {})
    return json.dumps({k: stamp.get(k) for k in MACHINE_KEYS}, sort_keys=True)


def _seeds(results: list[dict]) -> dict[str, list[int]]:
    seeds = defaultdict(set)
    for r in results:
        seeds[r["workload"]].add(r["seed"])
    return {w: sorted(s) for w, s in seeds.items()}


def _settings(result: dict) -> str:
    """The measured window and workload parameters of one result."""
    return json.dumps(
        {"seconds": result.get("seconds"), "params": result.get("params")},
        sort_keys=True,
    )


def refusal(base: list[dict], change: list[dict]) -> str | None:
    """Why the two sets cannot be compared, or None."""
    if not base or not change:
        return "both sets need at least one result file"
    machines = {_machine(r) for r in base + change}
    if len(machines) > 1:
        return "results come from different machine stamps:\n  " + "\n  ".join(
            sorted(machines)
        )
    if _seeds(base) != _seeds(change):
        return (
            f"seeds differ: base {_seeds(base)} vs change {_seeds(change)}"
        )
    for workload in sorted({r["workload"] for r in base + change}):
        settings = {
            _settings(r) for r in base + change if r["workload"] == workload
        }
        if len(settings) > 1:
            return (
                f"{workload} was run with different windows or parameters:"
                "\n  " + "\n  ".join(sorted(settings))
            )
    return None


def _values(results: list[dict], workload: str, metric: str, traced: bool):
    return [
        r["metrics"][metric]["value"]
        for r in results
        if r["workload"] == workload
        and r["trace"] == traced
        and metric in r["metrics"]
    ]


def worsening(base: float, change: float, better: str) -> float:
    """Relative change of the median, positive when the change is worse."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    rel = (change - base) / abs(base)
    return rel if better == "lower" else -rel


def verdict(
    base: list[float], change: list[float], better: str, bound: float
) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)`` for one workload and metric."""
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max(
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
        (c_q3 - c_q1) / abs(c_med) if c_med else 0.0,
    )
    worse = worsening(b_med, c_med, better)
    if better == "lower":
        all_better = max(change) < min(base)
    else:
        all_better = min(change) > max(base)
    if spread > bound and not all_better:
        return "unresolved", worse, spread
    if worse > bound:
        return "regression", worse, spread
    return "ok", worse, spread


def compare(base: list[dict], change: list[dict], declared: dict) -> list[dict]:
    """Per-workload verdicts for every declared end-to-end metric."""
    rows = []
    workloads = [w["name"] for w in declared["workloads"]]
    for workload in workloads:
        for spec in declared["end_to_end"]:
            a = _values(base, workload, spec["name"], False)
            b = _values(change, workload, spec["name"], False)
            if not a or not b:
                continue
            status, worse, spread = verdict(a, b, spec["better"], spec["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": spec["name"],
                    "unit": spec["unit"],
                    "bound": spec["bound"],
                    "base": quartiles(a),
                    "change": quartiles(b),
                    "runs": (len(a), len(b)),
                    "worsening": worse,
                    "spread": spread,
                    "verdict": status,
                }
            )
    return rows


def trace_overhead(results: list[dict]) -> list[tuple[str, str, float]]:
    """Traced over untraced medians of the service-time metrics."""
    out = []
    for workload in sorted({r["workload"] for r in results}):
        for metric, better in (("p50_ms", "lower"), ("rows_per_s", "higher")):
            plain = _values(results, workload, metric, False)
            traced = _values(results, workload, metric, True)
            if plain and traced:
                out.append(
                    (
                        workload,
                        metric,
                        worsening(
                            statistics.median(plain),
                            statistics.median(traced),
                            better,
                        ),
                    )
                )
    return out


def _fmt(values: tuple[float, float, float]) -> str:
    q1, med, q3 = values
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.compare")
    parser.add_argument("base", type=Path, help="directory of base results")
    parser.add_argument("change", type=Path, help="directory of change results")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, change = load_results(args.base), load_results(args.change)
    why_not = refusal(base, change)
    if why_not:
        print(f"refusing to compare: {why_not}", file=sys.stderr)
        return 2

    rows = compare(base, change, declared)
    print(
        f"{'workload':13s} {'metric':12s} {'base median [q1, q3]':28s} "
        f"{'change median [q1, q3]':28s} {'worse':>8s} {'spread':>7s} "
        f"{'bound':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:13s} {row['metric']:12s} "
            f"{_fmt(row['base']):28s} {_fmt(row['change']):28s} "
            f"{row['worsening']:+8.2%} {row['spread']:7.2%} "
            f"{row['bound']:6.1%}  {row['verdict']}"
        )
    for label, results in (("base", base), ("change", change)):
        for workload, metric, overhead in trace_overhead(results):
            print(
                f"trace overhead ({label}) {workload} {metric}: {overhead:+.1%}"
            )
    bad = [r for r in rows if r["verdict"] != "ok"]
    print(
        f"{len(rows)} compared, "
        f"{sum(r['verdict'] == 'regression' for r in bad)} regressions, "
        f"{sum(r['verdict'] == 'unresolved' for r in bad)} unresolved"
    )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
