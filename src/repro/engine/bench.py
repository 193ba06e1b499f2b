"""Inference throughput/latency harness: float vs one compiled plan.

Shared by the CLI ``bench`` subcommand and
``benchmarks/test_engine_throughput.py``.  For each hypervector
dimensionality it times two serving paths on the same fitted, quantised
model (``cluster_quant=framework``, ``predict_quant=binary_both`` — the
configuration where every heavy stage binarises):

* ``float`` — the uncompiled :meth:`MultiModelRegHD.predict` path (float
  sign matmuls);
* a compiled plan on the requested backend, single-threaded, in a cell
  named after that backend (default ``packed_v2``: fused encode→pack
  and cache-blocked popcount).

The emitted dict is what ``BENCH_inference.json`` stores at the repo
root: rows/sec plus p50/p99 per-batch latency for every (dim, variant)
cell, and the per-dim speedup of the compiled plan over the float path
— the regression baseline ``repro bench --compare`` checks against.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.runtime import RUNTIME_VERSION, resolve_backend
from repro.telemetry.timing import monotonic

#: Dimensionalities swept by the full benchmark (paper Sec. 4 uses 4k-10k).
DEFAULT_DIMS = (1000, 4096, 10000)


def _fitted_model(
    dim: int, features: int, seed: int, n_models: int = 8
) -> MultiModelRegHD:
    """A minimally-trained quantised model (state, not quality, matters)."""
    model = MultiModelRegHD(
        features,
        RegHDConfig(
            dim=dim,
            n_models=n_models,
            seed=seed,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
        ),
    )
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(256, features))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1]
    model.partial_fit(X, y)
    return model


def _time_predictor(predict, X, repeats: int, warmup: int = 1) -> dict:
    """Latency/throughput stats for one predictor over ``repeats`` batches."""
    for _ in range(warmup):
        predict(X)
    latencies = np.empty(repeats)
    for i in range(repeats):
        start = monotonic()
        predict(X)
        latencies[i] = monotonic() - start
    return {
        "batch_rows": int(X.shape[0]),
        "repeats": int(repeats),
        "rows_per_s": float(X.shape[0] * repeats / latencies.sum()),
        "mean_ms": float(latencies.mean() * 1e3),
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
    }


def run_inference_benchmark(
    *,
    dims: tuple[int, ...] = DEFAULT_DIMS,
    batch_rows: int = 2048,
    repeats: int = 10,
    features: int = 16,
    seed: int = 0,
    quick: bool = False,
    backend: str = "packed_v2",
) -> dict:
    """Measure the float path and the compiled plan across ``dims``.

    ``quick=True`` shrinks the sweep (drops D = 10k, smaller batches,
    fewer repeats) to a CI-friendly smoke run that still yields the
    compiled-vs-float comparison at D = 4096.  ``backend`` selects the
    execution-runtime backend of the compiled cell; the ``float`` cell
    always runs the uncompiled model path.
    """
    if quick:
        dims = tuple(d for d in dims if d <= 4096) or dims[:1]
        batch_rows = min(batch_rows, 512)
        repeats = min(repeats, 3)

    runtime = resolve_backend(backend)
    compiled = runtime.name
    rng = np.random.default_rng(seed + 1)
    results: list[dict] = []
    speedups: dict[str, dict[str, float]] = {}
    for dim in dims:
        model = _fitted_model(dim, features, seed)
        plan = model.compile(backend=runtime)
        X = rng.normal(size=(batch_rows, features))

        cells = {
            "float": _time_predictor(model.predict, X, repeats),
            compiled: _time_predictor(plan.predict, X, repeats),
        }
        for variant, stats in cells.items():
            results.append({"dim": int(dim), "variant": variant, **stats})
        speedups[str(dim)] = {
            f"{compiled}_vs_float": cells[compiled]["rows_per_s"]
            / cells["float"]["rows_per_s"],
        }

    return {
        "schema": 1,
        "benchmark": "reghd-inference-engine",
        "quant": {"cluster": "framework", "predict": "binary_both"},
        "quick": bool(quick),
        "params": {
            "dims": [int(d) for d in dims],
            "batch_rows": int(batch_rows),
            "repeats": int(repeats),
            "features": int(features),
            "n_models": 8,
            "seed": int(seed),
        },
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
        },
        "runtime": {
            "backend": compiled,
            "version": RUNTIME_VERSION,
        },
        "results": results,
        "speedups": speedups,
    }


# -- regression gate ---------------------------------------------------------

#: workload-parameter keys that must match for any comparison at all:
#: both raw rows/s *and* the speedup ratios shift with batch size (small
#: batches compress every packed speedup as python overhead dominates),
#: so a quick-mode record can never be gated against a full-sweep one.
_STRICT_KEYS = ("batch_rows", "repeats", "features")


def compare_inference_records(
    baseline: dict, current: dict, *, threshold: float = 0.10
) -> dict:
    """Diff two inference-benchmark records; flag throughput regressions.

    Records produced with different benchmark parameters (quick vs full
    sweep) are declared incomparable — both raw throughput and the
    speedup ratios are workload-dependent — and the gate passes with a
    ``note`` explaining why nothing was diffed.  With matching
    parameters, same core count means every shared ``(dim, variant)``
    cell's ``rows_per_s`` is compared directly and a drop larger than
    ``threshold`` is a regression; a different machine falls back to the
    machine-independent *speedup ratio* (the compiled plan over the
    float path on the same host).  Cross-machine comparison and quick-mode
    records each double the slack (without compounding) — smoke runs
    are noisy enough that only catastrophic drops are signal.

    The compiled cell and its ratio are named after the backend the
    record requested, so records that requested different backends
    share only the ``float`` cell (and no ratio); ``note`` says so.

    Returns a dict with ``strict`` (which mode ran), ``compared`` (cells
    diffed), ``lines`` (human-readable diff rows), ``regressions`` (the
    subset that breached the threshold; empty means the gate passes) and
    ``note`` (non-``None`` when something was skipped wholesale).  Cells
    present on only one side are skipped, so a baseline predating a
    variant never fails the gate spuriously.
    """
    lines: list[str] = []
    regressions: list[str] = []
    note: str | None = None
    if any(
        baseline.get("params", {}).get(k) != current.get("params", {}).get(k)
        for k in _STRICT_KEYS
    ):
        return {
            "strict": False,
            "threshold": float(threshold),
            "compared": 0,
            "lines": [],
            "regressions": [],
            "note": (
                "benchmark parameters differ (quick vs full sweep?) — "
                "throughput and speedup ratios are workload-dependent, "
                "nothing to gate"
            ),
        }
    if baseline.get("runtime", {}).get("backend") != current.get(
        "runtime", {}
    ).get("backend"):
        note = (
            "requested backends differ; their compiled cells and ratios "
            "were skipped"
        )
    strict = baseline.get("machine", {}).get("cpu_count") == current.get(
        "machine", {}
    ).get("cpu_count")
    # Quick-mode smoke runs (small batches, few repeats) carry enough
    # run-to-run noise that only catastrophic drops are signal; crossing
    # machines makes even the speedup ratios softer.  Either condition
    # doubles the slack (they do not compound).
    quick = bool(baseline.get("quick") or current.get("quick"))
    cut = 1.0 - threshold * (2.0 if quick or not strict else 1.0)
    if strict:
        base = {
            (r["dim"], r["variant"]): r["rows_per_s"]
            for r in baseline.get("results", [])
        }
        for r in current.get("results", []):
            key = (r["dim"], r["variant"])
            if key not in base or not base[key]:
                continue
            ratio = r["rows_per_s"] / base[key]
            line = (
                f"D={key[0]} {key[1]}: {base[key]:,.0f} -> "
                f"{r['rows_per_s']:,.0f} rows/s ({(ratio - 1) * 100:+.1f}%)"
            )
            lines.append(line)
            if ratio < cut:
                regressions.append(line)
    else:
        for dim, ratios in current.get("speedups", {}).items():
            base_ratios = baseline.get("speedups", {}).get(dim, {})
            for name, cur_val in ratios.items():
                base_val = base_ratios.get(name)
                if not base_val:
                    continue
                rel = cur_val / base_val
                line = (
                    f"D={dim} {name}: {base_val:.2f}x -> {cur_val:.2f}x "
                    f"({(rel - 1) * 100:+.1f}%)"
                )
                lines.append(line)
                if rel < cut:
                    regressions.append(line)
    return {
        "strict": strict,
        "threshold": float(threshold),
        "compared": len(lines),
        "lines": lines,
        "regressions": regressions,
        "note": note,
    }
