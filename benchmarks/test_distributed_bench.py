"""Distributed-training scaling — shard map-reduce vs sequential training.

Trains D=4096, k=8 models on 8 000 Friedman-1 rows in 256-row batches:
once sequentially (``partial_fit`` per batch), then as one
:class:`~repro.distributed.ShardTrainer` round of 1, 2, 4 and 8 shards
folded by the default ``mean`` merge.  Each round fans out over a
process pool of ``min(shards, host_cpus)`` workers and is timed over its
full round trip (state broadcast, worker construction, training, delta
pickling, ordered merge, apply), so on a host with fewer cores than
shards the speedup column measures pool overhead, not parallelism.

Pins the quality cost of the mean merge against sequential training on
1 000 held-out rows: one shard replays the sequential run exactly, and
2, 4 and 8 shards stay within RMSE ratios of 1.23, 1.42 and 1.56.

Writes ``benchmarks/results/distributed_scaling.txt``.
"""

from __future__ import annotations

import os

import pytest

from _common import save_result
from repro.core.config import RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.datasets import load_dataset
from repro.distributed import ShardTrainer
from repro.evaluation import render_table
from repro.metrics import root_mean_squared_error
from repro.telemetry.timing import monotonic

N_ROWS = 8000
N_TEST = 1000
FEATURES = 8
BATCH_ROWS = 256
CONFIG = RegHDConfig(dim=4096, n_models=8, seed=0)
HOST_CPUS = os.cpu_count() or 1

#: shard count -> the largest accepted RMSE ratio against sequential.
RMSE_RATIO_BOUNDS = {1: 1.0, 2: 1.23, 4: 1.42, 8: 1.56}


@pytest.fixture(scope="module")
def sweep():
    data = load_dataset(
        "friedman1", n_samples=N_ROWS + N_TEST, n_features=FEATURES, seed=0
    )
    X, y = data.X[:N_ROWS], data.y[:N_ROWS]
    X_test, y_test = data.X[N_ROWS:], data.y[N_ROWS:]

    model = MultiModelRegHD(FEATURES, CONFIG)
    start = monotonic()
    for lo in range(0, N_ROWS, BATCH_ROWS):
        model.partial_fit(X[lo : lo + BATCH_ROWS], y[lo : lo + BATCH_ROWS])
    seconds = monotonic() - start
    seq_rmse = root_mean_squared_error(y_test, model.predict(X_test))
    table = [
        {
            "shards": "sequential",
            "workers": 0,
            "rows_per_s": round(N_ROWS / seconds),
            "rmse": seq_rmse,
            "rmse_vs_seq": 1.0,
        }
    ]
    for shards in RMSE_RATIO_BOUNDS:
        model = MultiModelRegHD(FEATURES, CONFIG)
        workers = min(shards, HOST_CPUS)
        trainer = ShardTrainer(
            model,
            n_shards=shards,
            n_workers=workers,
            batch_rows=BATCH_ROWS,
            reduction="mean",
        )
        start = monotonic()
        trainer.train(X, y)
        seconds = monotonic() - start
        rmse = root_mean_squared_error(y_test, model.predict(X_test))
        table.append(
            {
                "shards": shards,
                "workers": workers,
                "rows_per_s": round(N_ROWS / seconds),
                "rmse": rmse,
                "rmse_vs_seq": rmse / seq_rmse,
            }
        )
    return table


def test_scaling_table(sweep):
    base = sweep[1]["rows_per_s"]  # the 1-shard round
    table = render_table(
        [{**r, "speedup": r["rows_per_s"] / base} for r in sweep], precision=4
    )
    save_result(
        "distributed_scaling", table + f"\n\nhost_cpus : {HOST_CPUS}"
    )
    print("\n" + table)


def test_mean_merge_rmse_ratio(sweep):
    ratios = {r["shards"]: r["rmse_vs_seq"] for r in sweep[1:]}
    assert ratios[1] == 1.0  # one shard replays the sequential stream
    for shards, bound in RMSE_RATIO_BOUNDS.items():
        assert ratios[shards] <= bound, (
            f"{shards}-shard mean merge: RMSE {ratios[shards]:.4f}x "
            f"sequential, bound {bound}x"
        )
