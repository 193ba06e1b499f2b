"""Shared configuration and helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper (see
DESIGN.md §2 for the index) and writes its rendered output under
``benchmarks/results/`` so EXPERIMENTS.md can quote it.

Benchmark-scale defaults trade a little quality for bounded runtime:
D = 1000 (the paper's Table 2 shows ≤ 1 % loss down to 1k), training
samples capped at 1200 per dataset, and a 15-epoch training budget.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.core import ConvergencePolicy, RegHDConfig
from repro.datasets import load_dataset, train_test_split
from repro.datasets.preprocessing import StandardScaler
from repro.telemetry.timing import monotonic

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Hypervector dimensionality used across the quality benchmarks.
BENCH_DIM = 1000

#: Sample cap applied to the large surrogates (wine: 4898, ccpp: 9568).
MAX_SAMPLES = 1200

#: Training budget for iterative models in the benchmarks.
BENCH_CONV = ConvergencePolicy(max_epochs=15, patience=4, tol=5e-4)


def bench_config(**overrides: object) -> RegHDConfig:
    """The benchmark-standard RegHD configuration, with overrides."""
    base = RegHDConfig(
        dim=BENCH_DIM, n_models=8, seed=0, convergence=BENCH_CONV
    )
    return base.with_overrides(**overrides)


def standardized_split(name: str, *, seed: int = 0):
    """Load a surrogate, cap its size, split, and standardise features.

    Returns ``(X_train, y_train, X_test, y_test, n_features)``.
    """
    ds = load_dataset(name, seed=0).subsample(MAX_SAMPLES, seed=seed)
    split = train_test_split(ds, test_fraction=0.25, seed=seed)
    scaler = StandardScaler().fit(split.X_train)
    return (
        scaler.transform(split.X_train),
        split.y_train,
        scaler.transform(split.X_test),
        split.y_test,
        ds.n_features,
    )


def save_result(name: str, text: str) -> pathlib.Path:
    """Write a rendered benchmark table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def call_seconds(fn, repeats: int, *, warmup: int = 1) -> np.ndarray:
    """Wall seconds of ``repeats`` timed calls of ``fn``, after ``warmup``
    untimed ones."""
    for _ in range(warmup):
        fn()
    seconds = np.empty(repeats)
    for i in range(repeats):
        start = monotonic()
        fn()
        seconds[i] = monotonic() - start
    return seconds


def paired_seconds(
    first, second, pairs: int, *, warmup: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Wall seconds of ``pairs`` timed calls each of ``first`` and
    ``second``, in alternating pairs, after ``warmup`` untimed calls of
    both.

    Each pair times one call of each back to back, ``first`` leading in
    even pairs and ``second`` in odd ones.  A host whose speed drifts in
    phases slows both calls of a pair alike, so the pairs' ratios cancel
    the phase; compare their median, which ignores the pairs a phase
    change splits.
    """
    for _ in range(warmup):
        first()
        second()
    seconds = np.empty((2, pairs))
    calls = (first, second)
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = monotonic()
            calls[side]()
            seconds[side, i] = monotonic() - start
    return seconds[0], seconds[1]
