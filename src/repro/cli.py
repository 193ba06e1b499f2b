"""Command-line interface: train, evaluate, inspect and deploy RegHD models.

Examples
--------
List the available datasets::

    python -m repro.cli datasets

Train RegHD-8 on the airfoil surrogate and save the model::

    python -m repro.cli train --dataset airfoil --k 8 --dim 2000 \\
        --save airfoil.npz

Predict with a saved model on a whitespace/CSV feature file::

    python -m repro.cli predict airfoil.npz features.csv

Compare model families on one dataset (Table-1 style)::

    python -m repro.cli compare --dataset boston

Query the Eq.-(4) capacity analysis::

    python -m repro.cli capacity --dim 100000 --patterns 10000 --threshold 0.5

Run a streaming session and export its metrics for a Prometheus scrape::

    python -m repro.cli stream --dataset airfoil --metrics-out metrics.prom
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import (
    BaselineHD,
    MultiModelRegHD,
    RegHDConfig,
    SingleModelRegHD,
    load_delta,
    load_model,
    save_delta,
    save_model,
)
from repro.baselines import DecisionTreeRegressor, MLPRegressor, RidgeRegression, SVR
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant
from repro.core.capacity import capacity, false_positive_probability
from repro.datasets import (
    available_datasets,
    load_dataset,
    train_test_split,
)
from repro.datasets.preprocessing import StandardScaler
from repro.engine import compare_inference_records, run_inference_benchmark
from repro.evaluation import render_table, run_on_split
from repro.metrics import mean_squared_error, r2_score
from repro.noise.injection import outlier_burst
from repro.registry import BACKEND_REGISTRY
from repro.reliability import GuardPolicy, ResilientStreamingRegHD, Watchdog, retry_call
from repro.robust import AdaptiveConformal
from repro.streaming import PageHinkley
from repro import telemetry


def _metrics_session(args: argparse.Namespace):
    """Enable the telemetry sink when the command asked for ``--metrics-out``.

    Returns the live registry (or None).  Enabling *before* the model is
    built matters: backend instrumentation is decided at resolve time.
    """
    if getattr(args, "metrics_out", None) is None:
        return None
    return telemetry.enable()


def _write_metrics(registry, args: argparse.Namespace) -> None:
    if registry is None:
        return
    path = telemetry.write_metrics(registry, args.metrics_out)
    print(f"wrote metrics    : {path}")


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable telemetry and export metrics here after the run "
        "(.json for JSON, anything else for Prometheus text)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="RegHD (DAC 2021) reproduction — command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="list registered datasets")
    datasets.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable listing (name/params/tags/shape)",
    )

    workloads = sub.add_parser(
        "workloads", help="list registered replay workloads"
    )
    workloads.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable listing (name/params/tags)",
    )

    replay = sub.add_parser(
        "replay",
        help="stream a workload through the resilient path and score its SLOs",
    )
    replay.add_argument(
        "workload",
        nargs="*",
        help="registered workload name(s); default replays the full catalogue",
    )
    replay.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: shrunken datasets and model dimensionality",
    )
    replay.add_argument("--seed", type=int, default=0, help="replay seed")
    replay.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the BENCH_workloads.json record here",
    )
    replay.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="arm the tracer and export Chrome trace-event JSON here",
    )
    replay.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="arm the flight recorder; rollback/breach post-mortem "
        "bundles are dumped into this directory",
    )
    replay.add_argument(
        "--live-out",
        default=None,
        metavar="PATH",
        help="write an atomic SLO snapshot here every --live-every "
        "batches (attach with `repro top PATH`)",
    )
    replay.add_argument(
        "--live-every",
        type=int,
        default=1,
        metavar="N",
        help="snapshot cadence in batches (default every batch)",
    )
    replay.add_argument(
        "--force-breach",
        action="store_true",
        help="substitute an unmeetable RMSE gate and watchdog envelope, "
        "guaranteeing a breach + rollback (exercises the post-mortem "
        "path; the run exits non-zero)",
    )
    _add_metrics_out(replay)

    top = sub.add_parser(
        "top",
        help="live SLO console: render a replay's snapshot file "
        "(burn rates, percentiles, caches, kernel counters)",
    )
    top.add_argument(
        "snapshot",
        metavar="PATH",
        help="snapshot file a replay writes via --live-out",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period (default 1s)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame without clearing the screen and exit",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: until Ctrl-C)",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="replay workload(s) with tracing armed and export the "
        "Chrome trace-event JSON (chrome://tracing / Perfetto)",
    )
    trace_cmd.add_argument(
        "workload",
        nargs="*",
        help="registered workload name(s); default traces the full catalogue",
    )
    trace_cmd.add_argument(
        "--out",
        required=True,
        metavar="PATH",
        help="write the Chrome trace-event JSON here",
    )
    trace_cmd.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: shrunken datasets and model dimensionality",
    )
    trace_cmd.add_argument("--seed", type=int, default=0, help="replay seed")

    train = sub.add_parser("train", help="train a RegHD model on a dataset")
    train.add_argument("--dataset", required=True, help="registered dataset name")
    train.add_argument("--k", type=int, default=8, help="number of models (0 = single-model)")
    train.add_argument("--dim", type=int, default=2000, help="hypervector dimensionality")
    train.add_argument("--lr", type=float, default=1.0, help="learning rate")
    train.add_argument("--epochs", type=int, default=30, help="max training iterations")
    train.add_argument("--seed", type=int, default=0, help="master seed")
    train.add_argument(
        "--cluster-quant",
        choices=[c.value for c in ClusterQuant],
        default="none",
        help="Sec.-3.1 cluster quantisation scheme",
    )
    train.add_argument(
        "--predict-quant",
        choices=[p.value for p in PredictQuant],
        default="full",
        help="Sec.-3.2 prediction quantisation scheme",
    )
    train.add_argument("--max-samples", type=int, default=None, help="cap dataset size")
    train.add_argument("--save", default=None, help="path to save the trained model (.npz)")
    train.add_argument(
        "--shards",
        type=int,
        default=0,
        help="train via shard map-reduce over N data shards instead of "
        "the sequential fit (0 = sequential; see repro.distributed)",
    )
    train.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for --shards (0 = train shards inline; "
        "both modes produce identical bits)",
    )
    train.add_argument(
        "--shard-reduction",
        choices=["mean", "sum"],
        default="mean",
        help="delta merge mode for --shards: 'mean' is the safe "
        "counts-weighted average; 'sum' bundles disjoint shards "
        "(sequential-quality parity at small shard counts, but can "
        "overshoot the LMS step when many large shards merge at once)",
    )
    train.add_argument(
        "--shard-rounds",
        type=int,
        default=3,
        help="map-reduce rounds for --shards (each round re-broadcasts "
        "the merged model, like an iterative-retraining epoch)",
    )
    train.add_argument(
        "--save-shard-deltas",
        default=None,
        metavar="DIR",
        help="with --shards: also write each final-round shard delta to "
        "DIR/shard_<i>.npz (mergeable later with `repro merge`)",
    )

    merge = sub.add_parser(
        "merge",
        help="merge shard delta files into a base model "
        "(counts-weighted ordered reduction)",
    )
    merge.add_argument(
        "deltas",
        nargs="+",
        help="delta .npz files from `train --save-shard-deltas` "
        "(merged in the given order)",
    )
    merge.add_argument(
        "--base",
        required=True,
        help="model file the deltas are folded into",
    )
    merge.add_argument(
        "--output",
        required=True,
        help="where to save the merged model (.npz)",
    )
    merge.add_argument(
        "--reduction",
        choices=["mean", "sum"],
        default="mean",
        help="delta merge mode: 'mean' is the safe counts-weighted "
        "average; 'sum' bundles disjoint shards (sequential-quality "
        "parity at small shard counts)",
    )
    merge.add_argument(
        "--delta-out",
        default=None,
        help="optionally also save the merged delta itself (.npz)",
    )

    predict = sub.add_parser("predict", help="predict with a saved model")
    predict.add_argument("model", help="model file from `train --save`")
    predict.add_argument(
        "features",
        help="text file of feature rows (whitespace- or comma-separated)",
    )
    predict.add_argument(
        "--backend",
        choices=sorted(BACKEND_REGISTRY),
        default=None,
        help="execution-runtime backend for the compiled serving path "
        "(default: auto from the model's quantisation config)",
    )
    predict.add_argument(
        "--intervals",
        action="store_true",
        help="print distributional predictions (mean, lower, upper from "
        "the k-model mixture) instead of bare points",
    )
    predict.add_argument(
        "--alpha",
        type=float,
        default=0.1,
        help="miscoverage level for --intervals bands (default 0.1)",
    )
    _add_metrics_out(predict)

    compare = sub.add_parser(
        "compare", help="Table-1-style model comparison on one dataset"
    )
    compare.add_argument("--dataset", required=True)
    compare.add_argument("--dim", type=int, default=1000)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--max-samples", type=int, default=1500)

    cap = sub.add_parser("capacity", help="Eq.-(4) capacity analysis")
    cap.add_argument("--dim", type=int, required=True)
    cap.add_argument("--threshold", type=float, default=0.5)
    group = cap.add_mutually_exclusive_group(required=True)
    group.add_argument("--patterns", type=int, help="query the false-positive rate")
    group.add_argument(
        "--max-error", type=float, help="query the capacity at this error"
    )

    hw = sub.add_parser(
        "hardware", help="cost/memory report for a RegHD configuration"
    )
    hw.add_argument("--dim", type=int, default=4000)
    hw.add_argument("--k", type=int, default=8)
    hw.add_argument("--features", type=int, default=10)
    hw.add_argument(
        "--cluster-quant",
        choices=[c.value for c in ClusterQuant],
        default="framework",
    )
    hw.add_argument(
        "--predict-quant",
        choices=[p.value for p in PredictQuant],
        default="binary_query",
    )
    hw.add_argument("--density", type=float, default=1.0, help="model density")
    hw.add_argument("--train-samples", type=int, default=1000)
    hw.add_argument("--epochs", type=int, default=15)

    stream = sub.add_parser(
        "stream",
        help="run a fault-tolerant streaming (prequential) session",
    )
    stream.add_argument("--dataset", required=True, help="registered dataset name")
    stream.add_argument("--k", type=int, default=8, help="number of models")
    stream.add_argument("--dim", type=int, default=2000, help="hypervector dimensionality")
    stream.add_argument("--seed", type=int, default=0, help="master seed")
    stream.add_argument("--batch-size", type=int, default=64, help="rows per stream batch")
    stream.add_argument(
        "--max-batches", type=int, default=None, help="stop after this many batches"
    )
    stream.add_argument(
        "--checkpoint-dir", default=None, help="directory for rotating checkpoints"
    )
    stream.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="checkpoint every N batches (needs --checkpoint-dir)",
    )
    stream.add_argument(
        "--keep-checkpoints", type=int, default=3, help="checkpoints retained"
    )
    stream.add_argument(
        "--guard-policy",
        choices=[p.value for p in GuardPolicy],
        default=None,
        help="input sanitisation policy (omit to disable the guard)",
    )
    stream.add_argument(
        "--scrub-every",
        type=int,
        default=0,
        help="memory-scrub every N batches (0 disables)",
    )
    stream.add_argument(
        "--watchdog",
        action="store_true",
        help="enable the health watchdog (rollback needs --checkpoint-dir)",
    )
    stream.add_argument(
        "--resume",
        action="store_true",
        help="recover from the newest valid checkpoint in --checkpoint-dir",
    )
    stream.add_argument(
        "--intervals",
        action="store_true",
        help="attach a streaming conformal calibrator and report its "
        "prequential coverage",
    )
    stream.add_argument(
        "--alpha",
        type=float,
        default=0.1,
        help="conformal miscoverage level for --intervals (default 0.1)",
    )
    stream.add_argument(
        "--contaminate",
        type=float,
        default=0.0,
        help="inject correlated heavy-tailed outliers into this fraction "
        "of stream rows (outlier_burst; 0 disables)",
    )
    stream.add_argument(
        "--contaminate-magnitude",
        type=float,
        default=10.0,
        help="outlier magnitude in per-column RMS units",
    )
    _add_metrics_out(stream)

    bench = sub.add_parser(
        "bench",
        help="inference-engine throughput/latency benchmark "
        "(float vs a compiled plan)",
    )
    bench.add_argument(
        "--dims",
        default="1000,4096,10000",
        help="comma-separated hypervector dimensionalities to sweep",
    )
    bench.add_argument(
        "--rows", type=int, default=2048, help="rows per timed batch"
    )
    bench.add_argument(
        "--repeats", type=int, default=10, help="timed batches per variant"
    )
    bench.add_argument(
        "--features", type=int, default=16, help="raw input features"
    )
    bench.add_argument("--seed", type=int, default=0, help="master seed")
    bench.add_argument(
        "--backend",
        choices=sorted(BACKEND_REGISTRY),
        default="packed_v2",
        help="execution-runtime backend of the compiled cell",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: smaller batches, fewer repeats, D <= 4096",
    )
    bench.add_argument(
        "--output",
        default="BENCH_inference.json",
        help="where to write the JSON perf record",
    )
    bench.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE",
        help="diff rows/s against a reference record and exit non-zero "
        "on a >10%% throughput regression (speedup-ratio fallback when "
        "machines/params differ)",
    )
    _add_metrics_out(bench)

    tele = sub.add_parser(
        "telemetry",
        help="exercise a small synthetic workload and export its metrics "
        "(or print the metric catalogue)",
    )
    tele.add_argument(
        "--catalog",
        action="store_true",
        help="print the metric catalogue (name, kind, help) and exit",
    )
    tele.add_argument("--dim", type=int, default=256, help="hypervector dimensionality")
    tele.add_argument("--rows", type=int, default=256, help="synthetic rows")
    tele.add_argument("--batches", type=int, default=8, help="stream batches")
    tele.add_argument("--seed", type=int, default=0, help="master seed")
    tele.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write metrics here (.json for JSON, else Prometheus text); "
        "default prints Prometheus text to stdout",
    )

    report = sub.add_parser(
        "report",
        help="collect benchmarks/results/*.txt into one experiment report",
    )
    report.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory the benchmarks wrote their tables to",
    )
    report.add_argument(
        "--output", default=None, help="write the report here (default stdout)"
    )
    return parser


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets import dataset_params, dataset_tags

    if args.json:
        listing = []
        for name in available_datasets():
            ds = load_dataset(name)
            listing.append(
                {
                    "name": name,
                    "params": list(dataset_params(name)),
                    "tags": list(dataset_tags(name)),
                    "n_samples": ds.n_samples,
                    "n_features": ds.n_features,
                    "description": ds.description,
                }
            )
        print(json.dumps(listing, indent=2))
        return 0
    for name in available_datasets():
        ds = load_dataset(name)
        tags = ",".join(dataset_tags(name))
        print(
            f"{name:16s} {ds.n_samples:6d} x {ds.n_features:3d}  "
            f"[{tags}]  {ds.description}"
        )
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import WORKLOAD_REGISTRY, available_workloads

    if args.json:
        listing = []
        for name in available_workloads():
            w = WORKLOAD_REGISTRY[name]
            listing.append(
                {
                    "name": name,
                    "dataset": w.dataset,
                    "dataset_kwargs": dict(w.dataset_kwargs),
                    "encoder": w.encoder,
                    "drift": w.drift.kind,
                    "traffic": w.traffic.kind,
                    "faults": [
                        {
                            "injector": f.injector,
                            "rate": f.rate,
                            "target": f.target,
                        }
                        for f in w.faults
                    ],
                    "guard_policy": w.guard_policy,
                    "tags": list(w.tags),
                    "description": w.description,
                }
            )
        print(json.dumps(listing, indent=2))
        return 0
    for name in available_workloads():
        w = WORKLOAD_REGISTRY[name]
        faults = ",".join(f"{f.injector}@{f.target}" for f in w.faults) or "-"
        print(
            f"{name:24s} data={w.dataset:16s} traffic={w.traffic.kind:12s} "
            f"drift={w.drift.kind:8s} faults={faults}"
        )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.workloads import (
        ReplayEngine,
        available_workloads,
        workload_bench_record,
    )

    registry = _metrics_session(args)
    names = tuple(args.workload) or available_workloads()
    tracing_on = getattr(args, "trace_out", None) is not None
    flight_dir = getattr(args, "flight_dir", None)
    # Session-level sinks: one tracer / flight recorder shared by every
    # workload in this invocation, so dump sequence numbers and trace
    # ids stay globally unique across the run.
    tracer = telemetry.enable_tracing() if tracing_on else None
    if flight_dir is not None:
        telemetry.enable_flight(dump_dir=flight_dir)
    engine = ReplayEngine(
        quick=args.quick,
        seed=args.seed,
        trace=tracing_on,
        flight_dir=flight_dir,
        live_out=getattr(args, "live_out", None),
        live_every=getattr(args, "live_every", 1),
        force_breach=getattr(args, "force_breach", False),
    )
    reports = []
    try:
        for name in names:
            report = engine.run(name)
            reports.append(report)
            verdict = "PASS" if report.passed else "FAIL"
            failed = ", ".join(
                f"{c.gate} {c.value:.4g} vs {c.limit:.4g}"
                for c in report.checks
                if not c.passed
            )
            p99 = (
                "     --"
                if report.p99_latency_ms is None
                else f"{report.p99_latency_ms:7.1f}"
            )
            print(
                f"{verdict}  {report.workload:24s} "
                f"rmse={report.tail_rmse:8.4f}  "
                f"cov={'--' if report.coverage is None else f'{report.coverage:.3f}'}  "
                f"p99={p99}ms  "
                f"batches={report.n_batches:4d}  faults={report.faults_injected:3d}"
                + (f"  [{failed}]" if failed else "")
            )
    finally:
        if flight_dir is not None:
            recorder = telemetry.active_recorder()
            if recorder is not None and recorder.dumps:
                print(f"flight dumps     : {len(recorder.dumps)} in {flight_dir}")
            telemetry.disable_flight()
        if tracer is not None:
            path = telemetry.write_chrome_trace(tracer, args.trace_out)
            print(f"wrote trace      : {path}")
            telemetry.disable_tracing()
    if args.output is not None:
        record = workload_bench_record(
            reports, quick=args.quick, seed=args.seed
        )
        with open(args.output, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote SLO report : {args.output}")
    _write_metrics(registry, args)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_top(args: argparse.Namespace) -> int:
    iterations = 1 if args.once else args.iterations
    telemetry.run_top(
        args.snapshot,
        interval=args.interval,
        iterations=iterations,
        clear=not args.once,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workloads import ReplayEngine, available_workloads

    names = tuple(args.workload) or available_workloads()
    tracer = telemetry.enable_tracing()
    try:
        engine = ReplayEngine(quick=args.quick, seed=args.seed, trace=True)
        for name in names:
            report = engine.run(name)
            print(
                f"traced  {report.workload:24s} "
                f"batches={report.n_batches:4d}"
            )
        path = telemetry.write_chrome_trace(tracer, args.out)
    finally:
        telemetry.disable_tracing()
    print(f"wrote trace      : {path} ({len(tracer.records)} spans)")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed)
    if args.max_samples:
        dataset = dataset.subsample(args.max_samples, seed=args.seed)
    split = train_test_split(dataset, seed=args.seed)
    scaler = StandardScaler().fit(split.X_train)
    X_train = scaler.transform(split.X_train)
    X_test = scaler.transform(split.X_test)

    conv = ConvergencePolicy(max_epochs=args.epochs, patience=4)
    if args.k <= 1:
        model: SingleModelRegHD | MultiModelRegHD = SingleModelRegHD(
            dataset.n_features,
            dim=args.dim,
            lr=args.lr,
            seed=args.seed,
            convergence=conv,
        )
    else:
        model = MultiModelRegHD(
            dataset.n_features,
            RegHDConfig(
                dim=args.dim,
                n_models=args.k,
                lr=args.lr,
                seed=args.seed,
                convergence=conv,
                cluster_quant=ClusterQuant(args.cluster_quant),
                predict_quant=PredictQuant(args.predict_quant),
            ),
        )
    if args.shards >= 1:
        from repro.distributed import ShardTrainer

        trainer = ShardTrainer(
            model,
            n_shards=args.shards,
            n_workers=args.workers,
            reduction=args.shard_reduction,
        )
        for _ in range(args.shard_rounds):
            deltas = trainer.map(X_train, split.y_train)
            merged = trainer.reduce(deltas)
            model.apply_delta(merged)
        if args.save_shard_deltas:
            import pathlib

            out_dir = pathlib.Path(args.save_shard_deltas)
            out_dir.mkdir(parents=True, exist_ok=True)
            for shard_id, delta in enumerate(deltas):
                save_delta(delta, out_dir / f"shard_{shard_id}.npz")
            print(f"shard deltas: {out_dir}/shard_0..{len(deltas) - 1}.npz")
        iterations = f"{args.shard_rounds} shard rounds x {args.shards} shards"
    else:
        model.fit(X_train, split.y_train)
        iterations = str(model.history_.n_epochs)
    pred = model.predict(X_test)
    print(f"dataset     : {dataset.name} ({split.n_train} train / {split.n_test} test)")
    print(f"model       : {model!r}")
    print(f"iterations  : {iterations}")
    print(f"test MSE    : {mean_squared_error(split.y_test, pred):.4f}")
    print(f"test R^2    : {r2_score(split.y_test, pred):.4f}")
    if args.save:
        path = save_model(model, args.save)
        # The model was trained on standardised features; persist the
        # scaler in a sidecar so `predict` can reproduce the pipeline.
        sidecar = path.with_suffix(path.suffix + ".scaler.json")
        sidecar.write_text(
            json.dumps(
                {
                    "mean": scaler._mean.tolist(),
                    "scale": scaler._scale.tolist(),
                }
            )
        )
        print(f"saved model : {path}")
        print(f"saved scaler: {sidecar}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.core.delta import merge_deltas

    model = load_model(args.base)
    deltas = [load_delta(path) for path in args.deltas]
    merged = merge_deltas(deltas, reduction=args.reduction)
    model.apply_delta(merged)
    path = save_model(model, args.output)
    print(
        f"merged      : {len(deltas)} delta(s), "
        f"{sum(d.n_samples for d in deltas)} samples, "
        f"{merged.nbytes} payload bytes"
    )
    print(f"saved model : {path}")
    if args.delta_out:
        delta_path = save_delta(merged, args.delta_out)
        print(f"saved delta : {delta_path}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import pathlib

    registry = _metrics_session(args)
    model = load_model(args.model)
    # Feature files may arrive over flaky network mounts; absorb
    # transient I/O errors with a bounded, seeded-jitter retry.
    try:
        X = retry_call(np.loadtxt, args.features, delimiter=",")
    except ValueError:
        X = retry_call(np.loadtxt, args.features)
    X = np.atleast_2d(X)
    # Apply the training-time feature scaler when its sidecar exists.
    sidecar = pathlib.Path(args.model + ".scaler.json")
    if not sidecar.exists():
        sidecar = pathlib.Path(args.model).with_suffix(".npz.scaler.json")
    if sidecar.exists():
        params = json.loads(sidecar.read_text())
        X = (X - np.asarray(params["mean"])) / np.asarray(params["scale"])
    if args.intervals:
        if not hasattr(model, "predict_dist"):
            print(
                f"{type(model).__name__} has no distributional output; "
                "--intervals needs a multi-model (k-cluster) RegHD model",
                file=sys.stderr,
            )
            return 1
        dist = model.predict_dist(X, alpha=args.alpha)
        print("prediction lower upper")
        for mean, lo, hi in zip(dist.mean, dist.lower, dist.upper):
            print(f"{mean:.6f} {lo:.6f} {hi:.6f}")
        _write_metrics(registry, args)
        return 0
    # Pure-inference workload: serve through the compiled engine (packed
    # popcount kernels on quantised configs) when the model supports it.
    if hasattr(model, "compile"):
        predictions = model.compile(backend=args.backend).predict(X)
    else:
        predictions = model.predict(X)
    for value in predictions:
        print(f"{value:.6f}")
    _write_metrics(registry, args)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, seed=args.seed).subsample(
        args.max_samples, seed=args.seed
    )
    split = train_test_split(dataset, seed=args.seed)
    conv = ConvergencePolicy(max_epochs=15, patience=4)
    factories = {
        "DNN": lambda n: MLPRegressor(hidden=(64, 64), epochs=60, seed=args.seed),
        "LinearReg": lambda n: RidgeRegression(alpha=1.0),
        "DecisionTree": lambda n: DecisionTreeRegressor(max_depth=8),
        "SVR": lambda n: SVR(epochs=40, seed=args.seed),
        "Baseline-HD": lambda n: BaselineHD(
            n, dim=args.dim, n_bins=128, seed=args.seed, convergence=conv
        ),
        "RegHD-1": lambda n: SingleModelRegHD(
            n, dim=args.dim, seed=args.seed, convergence=conv
        ),
        "RegHD-8": lambda n: MultiModelRegHD(
            n,
            RegHDConfig(dim=args.dim, n_models=8, seed=args.seed, convergence=conv),
        ),
    }
    rows = []
    for label, factory in factories.items():
        result = run_on_split(
            factory, split, dataset_name=dataset.name, model_label=label
        )
        rows.append(
            {"model": label, "mse": result.mse, "r2": result.r2, "fit_s": result.fit_seconds}
        )
    rows.sort(key=lambda r: r["mse"])
    print(render_table(rows, precision=3, title=f"comparison on {dataset.name}"))
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    if args.patterns is not None:
        rate = false_positive_probability(args.dim, args.patterns, args.threshold)
        print(
            f"false-positive rate for D={args.dim}, P={args.patterns}, "
            f"T={args.threshold}: {100 * rate:.2f} %"
        )
    else:
        p_max = capacity(args.dim, args.threshold, args.max_error)
        print(
            f"capacity of D={args.dim} at T={args.threshold}, "
            f"error<={args.max_error}: {p_max} patterns"
        )
    return 0


def _cmd_hardware(args: argparse.Namespace) -> int:
    from repro.hardware import (
        PROFILES,
        RegHDCostSpec,
        estimate,
        reghd_infer_cost,
        reghd_memory,
        reghd_train_cost,
    )

    spec = RegHDCostSpec(
        n_features=args.features,
        dim=args.dim,
        n_models=args.k,
        cluster_quant=ClusterQuant(args.cluster_quant),
        predict_quant=PredictQuant(args.predict_quant),
        model_density=args.density,
    )
    footprint = reghd_memory(spec, count_encoder=False)
    print(
        f"RegHD-{args.k} D={args.dim} "
        f"(clusters={args.cluster_quant}, predict={args.predict_quant}, "
        f"density={args.density})"
    )
    print(f"deployed parameters : {footprint.total_kib:.1f} KiB")
    rows = []
    train_ops = reghd_train_cost(spec, args.train_samples, args.epochs)
    infer_ops = reghd_infer_cost(spec, 1)
    for profile in PROFILES.values():
        train = estimate(train_ops, profile)
        infer = estimate(infer_ops, profile)
        rows.append(
            {
                "device": profile.name,
                "train_ms": train.latency_s * 1e3,
                "train_mJ": train.energy_j * 1e3,
                "infer_us": infer.latency_s * 1e6,
                "infer_uJ": infer.energy_j * 1e6,
            }
        )
    print(
        render_table(
            rows,
            precision=3,
            title=f"estimated cost ({args.train_samples} samples x "
            f"{args.epochs} epochs training; per-query inference)",
        )
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    registry = _metrics_session(args)
    dataset = load_dataset(args.dataset, seed=args.seed)
    scaler = StandardScaler().fit(dataset.X)
    X_all = scaler.transform(dataset.X)
    y_all = dataset.y
    if args.contaminate > 0.0:
        # Joint [x, y] contamination: the burst direction correlates
        # features and target, the workload the mahalanobis policy gates.
        Z = np.hstack([X_all, y_all[:, np.newaxis]])
        Z = outlier_burst(
            Z,
            args.contaminate,
            seed=args.seed,
            magnitude=args.contaminate_magnitude,
        )
        X_all, y_all = Z[:, :-1], Z[:, -1]

    watchdog = Watchdog() if args.watchdog else None
    common = dict(
        guard=args.guard_policy,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every if args.checkpoint_dir else 0,
        keep_checkpoints=args.keep_checkpoints,
        watchdog=watchdog,
        scrub_every=args.scrub_every,
    )
    if args.intervals and not args.resume:
        # On --resume the checkpointed calibrator (when present) is
        # restored instead, keeping its window and coverage counters.
        common["conformal"] = AdaptiveConformal(alpha=args.alpha)
    if args.resume:
        if not args.checkpoint_dir:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 1
        stream = ResilientStreamingRegHD.recover(
            args.checkpoint_dir,
            keep_checkpoints=args.keep_checkpoints,
            watchdog=watchdog,
            guard=args.guard_policy,
            checkpoint_every=args.checkpoint_every,
            scrub_every=args.scrub_every,
        )
        start_batch = stream._batch_counter
        print(f"recovered from checkpoint at batch {start_batch}")
    else:
        stream = ResilientStreamingRegHD(
            dataset.n_features,
            RegHDConfig(dim=args.dim, n_models=args.k, seed=args.seed),
            detector=PageHinkley(),
            **common,
        )
        start_batch = 0

    n_batches = len(X_all) // args.batch_size
    if args.max_batches is not None:
        n_batches = min(n_batches, start_batch + args.max_batches)
    for b in range(start_batch, n_batches):
        lo, hi = b * args.batch_size, (b + 1) * args.batch_size
        report = stream.update(X_all[lo:hi], y_all[lo:hi])
        if report.drift_detected or report.rolled_back or (b + 1) % 10 == 0:
            mse = report.prequential_mse
            flags = "".join(
                [
                    " drift" if report.drift_detected else "",
                    " ROLLBACK" if report.rolled_back else "",
                    " ckpt" if report.checkpointed else "",
                ]
            )
            print(
                f"batch {report.batch:5d}  preq-mse "
                f"{mse if mse is None else round(mse, 4)}{flags}"
            )
    curve = stream.history.mse_curve()
    print(f"batches processed : {stream.history.n_batches}")
    print(f"final preq. MSE   : {float(np.nanmean(curve[-5:])):.4f}")
    print(f"drift events      : {stream.history.drift_events}")
    print(f"rollbacks         : {len(stream.rollbacks)}")
    if stream.guard is not None and stream.guard.gate is not None:
        print(f"rows gated        : {stream.guard.total.n_gated_rows}")
    if stream.conformal is not None:
        print(
            f"conformal         : coverage "
            f"{stream.conformal.coverage:.3f} @ alpha "
            f"{stream.conformal.alpha}, half-width "
            f"{stream.conformal.quantile():.4f}"
        )
    if stream.checkpoints is not None:
        infos = stream.checkpoints.checkpoints()
        print(f"checkpoints kept  : {[i.path.name for i in infos]}")
    if registry is not None and stream.fitted:
        # One serving pass through the compiled engine so the exported
        # metrics include the serving-latency histograms, not just the
        # training-path counters.
        stream.predict(X_all[: args.batch_size])
    _write_metrics(registry, args)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import pathlib

    registry = _metrics_session(args)
    try:
        dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
    except ValueError:
        print(f"--dims must be comma-separated integers: {args.dims!r}", file=sys.stderr)
        return 1
    if not dims:
        print("--dims selected no dimensionalities", file=sys.stderr)
        return 1
    baseline = None
    if args.compare is not None:
        # Read before the run: the baseline may be the output path itself.
        try:
            baseline = json.loads(pathlib.Path(args.compare).read_text())
        except (OSError, ValueError) as exc:
            print(f"--compare: cannot read {args.compare}: {exc}", file=sys.stderr)
            return 1
    record = run_inference_benchmark(
        dims=dims,
        batch_rows=args.rows,
        repeats=args.repeats,
        features=args.features,
        seed=args.seed,
        quick=args.quick,
        backend=args.backend,
    )
    rows = [
        {
            "dim": r["dim"],
            "variant": r["variant"],
            "rows_per_s": r["rows_per_s"],
            "p50_ms": r["p50_ms"],
            "p99_ms": r["p99_ms"],
        }
        for r in record["results"]
    ]
    print(
        render_table(
            rows,
            precision=2,
            title="inference engine throughput "
            f"(batch={record['params']['batch_rows']} rows, "
            f"{record['params']['repeats']} repeats)",
        )
    )
    runtime = record["runtime"]
    for dim, ratios in record["speedups"].items():
        speedup = ratios[f"{runtime['backend']}_vs_float"]
        print(f"D={dim:>6}: {runtime['backend']} {speedup:.2f}x vs float")
    print(f"runtime backend: {runtime['backend']} (runtime v{runtime['version']})")
    out_path = pathlib.Path(args.output)
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out_path}")
    _write_metrics(registry, args)
    if baseline is not None:
        report = compare_inference_records(baseline, record)
        mode = "rows/s" if report["strict"] else "speedup ratios"
        print(f"compare vs {args.compare} ({mode}, {report['compared']} cells):")
        if report["note"]:
            print(f"  note: {report['note']}")
        for line in report["lines"]:
            marker = "  REGRESSION " if line in report["regressions"] else "  "
            print(marker + line)
        if report["regressions"]:
            print(
                f"{len(report['regressions'])} regression(s) beyond "
                f"{report['threshold']:.0%}",
                file=sys.stderr,
            )
            return 1
        print("no regressions")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.catalog:
        for name, (kind, help_text) in sorted(telemetry.CATALOG.items()):
            print(f"{name:42s} {kind:10s} {help_text}")
        return 0
    registry = telemetry.enable()
    rng = np.random.default_rng(args.seed)
    n_features = 8
    X = rng.normal(size=(args.rows, n_features))
    y = X @ rng.normal(size=n_features)
    stream = ResilientStreamingRegHD(
        n_features,
        RegHDConfig(dim=args.dim, n_models=4, seed=args.seed),
        detector=PageHinkley(),
        guard=GuardPolicy.REPAIR,
    )
    batch = max(1, args.rows // max(1, args.batches))
    for lo in range(0, len(X), batch):
        stream.update(X[lo : lo + batch], y[lo : lo + batch])
    stream.predict(X[:batch])  # serving pass: latency histograms
    if args.output:
        path = telemetry.write_metrics(registry, args.output)
        print(f"wrote {path}")
    else:
        print(telemetry.to_prometheus(registry), end="")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    results_dir = pathlib.Path(args.results_dir)
    files = sorted(results_dir.glob("*.txt"))
    if not files:
        print(
            f"no result tables under {results_dir}; run "
            "`pytest benchmarks/ --benchmark-only` first",
            file=sys.stderr,
        )
        return 1
    sections = ["# RegHD reproduction — collected benchmark tables", ""]
    for path in files:
        sections.append(f"## {path.stem}")
        sections.append("")
        sections.append("```")
        sections.append(path.read_text().rstrip())
        sections.append("```")
        sections.append("")
    report = "\n".join(sections)
    if args.output:
        pathlib.Path(args.output).write_text(report)
        print(f"wrote {args.output} ({len(files)} tables)")
    else:
        print(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "workloads":
        return _cmd_workloads(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "train":
        return _cmd_train(args)
    if args.command == "merge":
        return _cmd_merge(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "capacity":
        return _cmd_capacity(args)
    if args.command == "hardware":
        return _cmd_hardware(args)
    if args.command == "stream":
        return _cmd_stream(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "report":
        return _cmd_report(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
