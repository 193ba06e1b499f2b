"""The benchmark's workloads.

Both use the registered ``regime`` dataset: 8 Gaussian regimes over 6
features, so each regime can settle on one of the k = 8 models.  The
regimes are drawn once, from dataset seed 0.  What a workload learns from
and is scored on is the same for every seed: models train (or stream) on
the first rows of that draw, in order, and the held-out rows behind them
give ``rmse``.  The workload seed picks the rows that are served.  The
model seed is fixed at 0.  So ``rmse`` reads the same at every seed and
any change in it is the code's; with seed-picked training and held-out
rows it spread by 3-16 % across seeds.

Each workload builds its state in :meth:`Workload.setup` (timed as set-up)
and then serves a closed loop: :meth:`Workload.next_request` gives the
next request, a timed ``serve`` answers it and an untimed ``check``
validates the answer.  Requests follow a fixed pattern that repeats every
``block_requests`` requests, so every block does the same work and the
timing metrics can compare blocks.  After each block,
:meth:`Workload.reference_block` times the same kind of work done by the
frozen code of :mod:`bench.reference`, which measures the host's speed.
:meth:`Workload.finish` checks the final outputs against the library's
reference path and measures their error.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from functools import partial
from pathlib import Path

import numpy as np

from bench.harness import Request
from bench.reference import Operands, ReferencePredict, ReferenceUpdate

#: k: one model per regime
N_MODELS = 8
N_FEATURES = 6
MODEL_SEED = 0
DATA_SEED = 0
#: rows in the regime draw that workload seeds pick from
POOL_ROWS = 20000
#: rows held out for the final parity check and the ``rmse`` metric
N_EVAL = 2000
#: tolerance of compiled-plan parity against ``MultiModelRegHD.predict``,
#: the one the engine's own tests use
RTOL, ATOL = 1e-9, 1e-10


def regime_rows(seed: int, n_fixed: int, n_picked: int):
    """Rows of the regime draw as two ``(X, y)`` pairs: the first
    ``n_fixed`` rows, the same for every seed (training and held-out
    data), and ``n_picked`` distinct later rows picked by workload ``seed``.
    """
    from repro.datasets import load_dataset

    pool = max(POOL_ROWS, n_fixed + n_picked)
    ds = load_dataset(
        "regime",
        seed=DATA_SEED,
        n_samples=pool,
        n_features=N_FEATURES,
        n_regimes=N_MODELS,
    )
    idx = n_fixed + _rng(seed, 0).choice(pool - n_fixed, n_picked, replace=False)
    return (ds.X[:n_fixed], ds.y[:n_fixed]), (ds.X[idx], ds.y[idx])


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per purpose (row picks, ...)."""
    return np.random.default_rng([seed, stream])


def _reference_rows(rows: int) -> np.ndarray:
    """Fixed input rows of the reference blocks, the same at every seed."""
    return _rng(0, 9).normal(size=(rows, N_FEATURES))


def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _parity(name: str, served: np.ndarray, reference: np.ndarray) -> dict:
    ok = served.shape == reference.shape and bool(
        np.allclose(served, reference, rtol=RTOL, atol=ATOL)
    )
    err = (
        float(np.max(np.abs(served - reference)))
        if served.shape == reference.shape
        else float("inf")
    )
    return {"name": name, "ok": ok, "detail": f"max abs diff {err:.3g}"}


def _finite(out: object, n: int) -> bool:
    return (
        isinstance(out, np.ndarray)
        and out.shape == (n,)
        and bool(np.isfinite(out).all())
    )


class Workload:
    """Base: subclasses set the class attributes and the hooks they use."""

    name = ""
    why = ""
    #: the request kind whose latency ``p50_ms`` reports
    p50_kind = "predict"
    #: requests per block: one repetition of the request pattern
    block_requests = 1
    #: set-ups per run, each serving an equal segment of the window;
    #: ``setup_s`` is their median
    setup_reps = 5
    #: what :meth:`reference_block` gives, ``p50_ms`` and ``rows_per_s``,
    #: at the nominal host speed: the host's fast phases when the
    #: benchmark was written.  They scale the timing metrics to
    #: milliseconds and rows per second at that speed.
    ref_p50_ms = 1.0
    ref_rows_per_s = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        #: this instance's files: checkpoints, the reference's save
        self.tmpdir = Path(tempfile.mkdtemp(prefix="workload-", dir=workdir))
        #: one block's reference calls: ``(kind, rows, call)``
        self.reference: list[tuple[str, int, object]] = []

    def reference_block(self) -> tuple[float, float]:
        """Run the reference calls of one block: ``(p50_ms, rows_per_s)``,
        the median time of the ``p50_kind`` calls and rows per second of
        all of them, as :func:`bench.worker.blocks` gives them for a block
        of requests."""
        latency, rows, total = [], 0, 0.0
        for kind, n, call in self.reference:
            start = time.perf_counter()
            call()
            took = time.perf_counter() - start
            if kind == self.p50_kind:
                latency.append(took)
            rows += n
            total += took
        return statistics.median(latency) * 1e3, rows / total

    @property
    def min_requests(self) -> int:
        """Requests each segment serves even if its time has run out:
        enough to fill what ``rmse`` is measured over."""
        return self.block_requests

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def next_request(self, rid: int) -> Request:
        raise NotImplementedError

    def serve(self, request: Request) -> object:
        raise NotImplementedError

    def check(self, request: Request, out: object) -> bool:
        raise NotImplementedError

    def begin_window(self) -> None:
        """Reset counters that the measured window reports."""

    def finish(self) -> dict:
        """``{"rmse", "checks"}`` from the final state, plus optional
        ``"extras"`` (per-layer ratios) and ``"counts"`` (events worth
        recording)."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove this instance's files."""
        shutil.rmtree(self.tmpdir, ignore_errors=True)


def _config(dim: int, **extra):
    """FRAMEWORK cluster search with BINARY_BOTH dots: the configuration in
    which every serving stage runs on packed words, so the automatic
    backend choice compiles the fused encode→pack plan."""
    from repro.core.config import RegHDConfig
    from repro.core.quantization import ClusterQuant, PredictQuant

    return RegHDConfig(
        dim=dim,
        n_models=N_MODELS,
        seed=MODEL_SEED,
        cluster_quant=ClusterQuant.FRAMEWORK,
        predict_quant=PredictQuant.BINARY_BOTH,
        **extra,
    )


class ServePoint(Workload):
    name = "serve_point"
    why = (
        "IoT point queries: 1-row compiled-plan predicts back to back, where "
        "per-call overhead is a large share of each call."
    )
    dim = 4096
    n_train = 2048
    n_pool = 4096
    #: about 25-40 ms of predicts
    block_requests = 100
    ref_p50_ms = 0.19
    ref_rows_per_s = 5200.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        ops = Operands(N_FEATURES, self.dim, N_MODELS)
        predict = ReferencePredict(ops, 1)
        X = _reference_rows(self.block_requests)
        self.reference = [
            ("predict", 1, partial(predict, X[i : i + 1]))
            for i in range(self.block_requests)
        ]

    def params(self) -> dict:
        return {
            "dataset": "regime",
            "dim": self.dim,
            "k": N_MODELS,
            "cluster_quant": "framework",
            "predict_quant": "binary_both",
            "backend": self.plan.backend_name,
            "train_rows_partial_fit": self.n_train,
            "eval_rows": N_EVAL,
            "loop": "closed",
            "clients": 1,
            "rows": 1,
            "block_requests": self.block_requests,
        }

    def setup(self) -> None:
        from repro.core.multi import MultiModelRegHD

        (X, y), (self.X_pool, _) = regime_rows(
            self.seed, self.n_train + N_EVAL, self.n_pool
        )
        self.X_eval, self.y_eval = X[self.n_train :], y[self.n_train :]
        # Trained online in one pass, as a deployed device would be.
        self.model = MultiModelRegHD(N_FEATURES, _config(self.dim))
        for lo in range(0, self.n_train, 256):
            self.model.partial_fit(X[lo : lo + 256], y[lo : lo + 256])
        self.plan = self.model.compile()
        if self.plan.backend_name != "packed_v2" or not self.plan.fused_encode:
            raise RuntimeError(
                f"expected the fused packed_v2 plan, got {self.plan!r} "
                f"({self.plan.backend_name})"
            )
        self.plan.predict(X[:1])
        self._picks = _rng(self.seed, 2)

    def next_request(self, rid: int) -> Request:
        i = int(self._picks.integers(0, len(self.X_pool)))
        return Request("predict", 1, self.X_pool[i : i + 1])

    def serve(self, request: Request) -> object:
        return self.plan.predict(request.payload)

    def check(self, request: Request, out: object) -> bool:
        return _finite(out, request.rows)

    def finish(self) -> dict:
        served = self.plan.predict(self.X_eval)
        reference = self.model.predict(self.X_eval)
        return {
            "rmse": _rmse(served, self.y_eval),
            "checks": [_parity("plan_vs_model_predict", served, reference)],
        }


class StreamMixed(Workload):
    name = "stream_mixed"
    why = (
        "Reads beside writes: 8-row predicts and 32-row labelled updates on "
        "one resilient stream, so guard, update, plan-refresh and "
        "checkpoint costs share one server."
    )
    dim = 4096
    predict_rows, update_rows = 8, 32
    #: predicts served before each update
    predicts_per_update = 20
    #: a checkpoint with every update, so every block holds one save
    checkpoint_every = 1
    warmup_updates = 16
    #: batch reports a stream keeps, and saves in each checkpoint.  Left
    #: unbounded, a save's cost grows with the stream's length (see the
    #: README's findings), so it would depend on how fast a run went.
    max_history = 16
    #: ``rmse`` is the prequential error of a segment's first updates
    rmse_updates = 40
    #: distinct update batches in the window; later updates repeat them
    stream_updates = 256
    forgetting = 0.997
    n_pool = 4096
    ref_p50_ms = 0.9
    ref_rows_per_s = 5800.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        ops = Operands(N_FEATURES, self.dim, N_MODELS)
        predict = ReferencePredict(ops, self.predict_rows)
        update = ReferenceUpdate(ops, str(self.tmpdir / "reference.npz"))
        X = _reference_rows(self.predicts_per_update * self.predict_rows)
        n = self.predict_rows
        self.reference = [
            ("predict", n, partial(predict, X[i * n : (i + 1) * n]))
            for i in range(self.predicts_per_update)
        ]
        y = np.zeros(self.update_rows)
        self.reference.append(
            ("update", self.update_rows, partial(update, X[: self.update_rows], y))
        )

    @property
    def block_requests(self) -> int:
        """One cycle, about 50 ms: the predicts, then the update and its
        checkpoint."""
        return self.predicts_per_update + 1

    @property
    def min_requests(self) -> int:
        return self.rmse_updates * self.block_requests

    def params(self) -> dict:
        return {
            "dataset": "regime",
            "dim": self.dim,
            "k": N_MODELS,
            "cluster_quant": "framework",
            "predict_quant": "binary_both",
            "loop": "closed",
            "clients": 1,
            "predict_rows": self.predict_rows,
            "update_rows": self.update_rows,
            "predicts_per_update": self.predicts_per_update,
            "warmup_updates": self.warmup_updates,
            "stream_updates": self.stream_updates,
            "guard": "mahalanobis",
            "watchdog": True,
            "checkpoint_every": self.checkpoint_every,
            "drift_detector": "page_hinkley",
            "conformal": "adaptive",
            "forgetting": self.forgetting,
            "max_history": self.max_history,
            "rmse": f"prequential, over the window's first {self.rmse_updates} updates",
            "parity_rows": N_EVAL,
            "block_requests": self.block_requests,
        }

    def setup(self) -> None:
        from repro.reliability.resilient import ResilientStreamingRegHD
        from repro.reliability.watchdog import Watchdog
        from repro.robust.conformal import AdaptiveConformal
        from repro.streaming import PageHinkley

        n_stream = (self.warmup_updates + self.stream_updates) * self.update_rows
        (X, y), (self.X_pool, _) = regime_rows(
            self.seed, n_stream + N_EVAL, self.n_pool
        )
        self.X_stream, self.y_stream = X[:n_stream], y[:n_stream]
        self.X_eval = X[n_stream:]
        self.stream = ResilientStreamingRegHD(
            N_FEATURES,
            _config(self.dim),
            guard="mahalanobis",
            checkpoint_dir=self.tmpdir / "checkpoints",
            checkpoint_every=self.checkpoint_every,
            watchdog=Watchdog(),
            forgetting=self.forgetting,
            max_history=self.max_history,
            detector=PageHinkley(),
            conformal=AdaptiveConformal(),
        )
        for batch in range(self.warmup_updates):
            self._update(batch)
        self.stream.predict(self.X_pool[: self.predict_rows])
        self._picks = _rng(self.seed, 2)

    def _update(self, batch: int):
        lo = batch * self.update_rows
        hi = lo + self.update_rows
        return self.stream.update(self.X_stream[lo:hi], self.y_stream[lo:hi])

    def next_request(self, rid: int) -> Request:
        update, pos = divmod(rid, self.block_requests)
        if pos == self.predicts_per_update:
            batch = self.warmup_updates + update % self.stream_updates
            return Request("update", self.update_rows, (update, batch))
        i = int(self._picks.integers(0, len(self.X_pool) - self.predict_rows))
        return Request(
            "predict", self.predict_rows, self.X_pool[i : i + self.predict_rows]
        )

    def begin_window(self) -> None:
        self.stream._plan.refresh_stats.reset()
        self.gated_before = self.stream.guard.gate.n_gated
        self.rows_scored = 0
        #: prequential squared error and rows over the first updates
        self.sq_err = 0.0
        self.rows_learned = 0

    def serve(self, request: Request) -> object:
        gate = self.stream.guard.gate
        before = gate.n_gated
        if request.kind == "update":
            out = self._update(request.payload[1])
        else:
            out = self.stream.predict(request.payload)
        return out, request.rows - (gate.n_gated - before)

    def check(self, request: Request, out: object) -> bool:
        out, admitted = out
        self.rows_scored += request.rows
        if request.kind == "predict":
            return _finite(out, admitted)
        if out.skipped or out.prequential_mse is None:
            return False
        if request.payload[0] < self.rmse_updates:
            self.sq_err += out.prequential_mse * admitted
            self.rows_learned += admitted
        return bool(np.isfinite(out.prequential_mse))

    def finish(self) -> dict:
        stream = self.stream
        stats = stream._plan.refresh_stats
        moved = stats["rows_refreshed"] + stats["rows_reused"]
        gated = stream.guard.gate.n_gated - self.gated_before
        keep = stream.guard.gate.score(self.X_eval).keep
        served = stream.predict(self.X_eval)
        reference = stream.model.predict(self.X_eval[keep])
        return {
            # Prequential (predict-then-train) error over the first
            # updates: it covers the guard and every step of learning.
            "rmse": float(np.sqrt(self.sq_err / self.rows_learned)),
            "checks": [
                _parity("stream_predict_vs_model_predict", served, reference)
            ],
            "counts": {
                "rollbacks": len(stream.rollbacks),
                "drift_events": len(stream.history.drift_events),
                "checkpoints_kept": len(stream.checkpoints.checkpoints()),
            },
            "extras": {
                "engine.refresh.reuse_frac": (
                    stats["rows_reused"] / moved if moved else 0.0
                ),
                "robust.gate.gated_frac": (
                    gated / self.rows_scored if self.rows_scored else 0.0
                ),
            },
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServePoint, StreamMixed)
}
