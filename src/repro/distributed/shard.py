"""Shard-parallel map-reduce training over the ModelDelta protocol.

A RegHD model is a bundle — a weighted sum of encoded inputs — so a
training span decomposes: N workers train on N disjoint data shards
from the *same broadcast base state*, each captures the sum of its
updates as a :class:`~repro.core.delta.ModelDelta`, and one ordered
counts-weighted reduction (:func:`~repro.core.delta.merge_deltas`)
folds the shards back into the base.  This module is the map-reduce
harness around that algebra:

* :func:`shard_indices` — deterministic contiguous sharding, so shard 0
  of a 1-shard split *is* the sequential stream;
* :class:`ShardTrainer` — broadcast → map → ordered reduce → apply.
  ``n_workers=0`` runs the workers inline (same code path, no
  processes); ``n_workers>0`` fans out over a ``fork`` process pool
  with the state protocol (``get_state``/``set_state``) as the wire
  format.  Each pool worker pins its BLAS to one thread and encodes
  without the split-pass helper thread (:mod:`repro.ops.halves`), so N
  workers run N threads rather than N times the host's cores.  Reduction
  always happens in shard-id order regardless of worker completion
  order, so the merge order — and therefore every bit of the merged
  model — cannot depend on scheduling.

Parity guarantees (enforced by tests/test_distributed.py and the golden
suite):

* ``n_shards=1`` replays sequential ``partial_fit`` bit-for-bit on
  zero-initialised learned state (the single-delta merge is an exact
  copy, and the accumulator performs the same left-fold of updates the
  live model performs);
* for any shard count, ``n_workers=0`` and ``n_workers>0`` produce
  identical bits (the process pool changes *where* a shard trains,
  never *what* it computes);
* the base target scaler is frozen from the round's first batch before
  broadcasting — exactly the batch sequential ``partial_fit`` would
  freeze on — so every shard trains in the sequential target space and
  worker-side ``freeze_once`` calls are no-ops.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import pathlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.delta import ModelDelta, merge_deltas
from repro.exceptions import ConfigurationError
from repro.ops import halves
from repro.registry import model_class, model_type_of
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import span
from repro.types import ArrayLike
from repro.utils.validation import check_1d, check_2d, check_matching_lengths


def shard_indices(n_rows: int, n_shards: int) -> list[np.ndarray]:
    """Contiguous deterministic split of ``range(n_rows)`` into shards.

    Contiguity matters: within a shard the stream order is preserved,
    so the 1-shard split degenerates to the sequential stream and the
    parity guarantees above hold.  Empty shards (more shards than rows)
    are legal — their deltas are merge identities.
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    return np.array_split(np.arange(n_rows), n_shards)


#: whether this process's BLAS runs on one pinned thread; only the pool
#: initializer sets it, in the worker process it initialises
_BLAS_PINNED = False


def _pin_blas_thread() -> None:
    """Pool initializer: run this worker's BLAS and encodes on one thread.

    The encoders' split passes stay in the calling thread
    (:func:`repro.ops.halves.stay_single_threaded`).  numpy's bundled
    OpenBLAS (``numpy.libs/libscipy_openblas64_*``) exports
    ``scipy_openblas_set_num_threads64_``.  Where no such library or
    symbol exists (another BLAS build), the BLAS is left as it is, and
    :attr:`ShardRoundReport.blas_pinned` says so.
    """
    global _BLAS_PINNED
    halves.stay_single_threaded()
    libs = pathlib.Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:
            lib = ctypes.CDLL(str(path))
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)
        _BLAS_PINNED = True
        return


def _train_shard(payload: tuple) -> tuple[int, ModelDelta, bool]:
    """Worker body: rebuild the broadcast model, train, capture the delta.

    Module-level so the ``fork``/``spawn`` pool can pickle it; the
    payload is ``(shard_id, model_type, meta, arrays, X, y,
    batch_rows)`` — the state-protocol tuple is the wire format, so
    anything that round-trips through ``get_state`` can train remotely.
    Also returns whether this process's BLAS is pinned to one thread.
    """
    shard_id, model_type, meta, arrays, X, y, batch_rows = payload
    worker = model_class(model_type).from_state(meta, arrays)
    worker.begin_delta()
    step = batch_rows or len(y) or 1
    for start in range(0, len(y), step):
        worker.partial_fit(X[start : start + step], y[start : start + step])
    return shard_id, worker.capture_delta(), _BLAS_PINNED


@dataclass
class ShardRoundReport:
    """What one map-reduce round did (sizes, wire cost, merged delta)."""

    n_shards: int
    n_workers: int
    shard_samples: list[int] = field(default_factory=list)
    shard_bytes: int = 0
    merged_bytes: int = 0
    merged: ModelDelta | None = None
    #: every worker process ran its BLAS on one pinned thread (False
    #: inline, and where the BLAS offers no pin)
    blas_pinned: bool = False


class ShardTrainer:
    """Map-reduce ``partial_fit`` over data shards, folded by delta merge.

    Parameters
    ----------
    model:
        The live base estimator (must support ``partial_fit``).  Its
        state is broadcast to every worker each round; the merged delta
        is applied back to it by :meth:`train`.
    n_shards:
        Number of data shards per round.
    n_workers:
        ``0`` trains every shard inline in this process (deterministic
        reference mode); ``> 0`` fans shards out over that many worker
        processes.  Both modes produce identical bits.
    batch_rows:
        Worker-side ``partial_fit`` batch length; ``None`` absorbs each
        shard in one call.  The base scaler freeze uses the same length,
        matching what a sequential run over the round's stream would
        freeze on.
    reduction:
        Forwarded to :func:`~repro.core.delta.merge_deltas`:
        ``"mean"`` (default) is the counts-weighted average — always
        stable, but it shrinks the effective per-sample step by the
        shard count.  ``"sum"`` is the bundling reduction that
        reproduces sequential accumulation over disjoint shards (the
        quality-parity mode at small shard counts and fine merge
        cadence); because every shard's LMS corrections are computed
        from the same stale base, summing many large shards at once
        can overshoot and diverge — prefer mean beyond a few shards
        per round.
    mp_context:
        Multiprocessing start method for the pool (default ``"fork"``,
        which shares the already-imported library with the workers).
    """

    def __init__(
        self,
        model,
        *,
        n_shards: int,
        n_workers: int = 0,
        batch_rows: int | None = None,
        reduction: str = "mean",
        mp_context: str = "fork",
    ):
        if not getattr(model, "supports_partial_fit", False):
            raise ConfigurationError(
                f"{type(model).__name__} does not support partial_fit and "
                "cannot train in shards"
            )
        if n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if n_workers < 0:
            raise ConfigurationError(
                f"n_workers must be >= 0, got {n_workers}"
            )
        if batch_rows is not None and batch_rows < 1:
            raise ConfigurationError(
                f"batch_rows must be >= 1 or None, got {batch_rows}"
            )
        if reduction not in ("mean", "sum"):
            raise ConfigurationError(
                f"reduction must be 'mean' or 'sum', got {reduction!r}"
            )
        self.model = model
        self.n_shards = int(n_shards)
        self.n_workers = int(n_workers)
        self.batch_rows = batch_rows
        self.reduction = reduction
        self.mp_context = mp_context

    # -- the map half ------------------------------------------------------

    def map(self, X: ArrayLike, y: ArrayLike) -> list[ModelDelta]:
        """Train every shard from the current base state; return the
        deltas in shard-id order (the reduction order).

        The base model's learned arrays are untouched; only its target
        scaler may freeze (from the round's first batch, exactly as a
        sequential ``partial_fit`` stream would) so all shards share
        one target space.
        """
        return self._map(X, y)[0]

    def _map(
        self, X: ArrayLike, y: ArrayLike
    ) -> tuple[list[ModelDelta], bool]:
        """:meth:`map`, plus whether every shard trained on one pinned
        BLAS thread."""
        X_arr = check_2d("X", X)
        y_arr = check_1d("y", y)
        check_matching_lengths("X", X_arr, "y", y_arr)
        first = self.batch_rows or len(y_arr)
        if len(y_arr):
            self.model.scaler.freeze_once(y_arr[:first])

        meta, arrays = self.model.get_state()
        model_type = model_type_of(self.model)
        payloads = [
            (
                shard_id,
                model_type,
                meta,
                arrays,
                X_arr[idx],
                y_arr[idx],
                self.batch_rows,
            )
            for shard_id, idx in enumerate(
                shard_indices(len(y_arr), self.n_shards)
            )
        ]

        with span("distributed/map"):
            if self.n_workers == 0:
                results = [_train_shard(p) for p in payloads]
            else:
                ctx = multiprocessing.get_context(self.mp_context)
                with ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=ctx,
                    initializer=_pin_blas_thread,
                ) as pool:
                    results = list(pool.map(_train_shard, payloads))
        # Ordered reduction: sort by shard id so worker completion order
        # can never reorder the merge (merge order cannot change bits).
        results.sort(key=lambda item: item[0])
        deltas = [delta for _, delta, _ in results]
        pinned = bool(results) and all(item[2] for item in results)

        registry = _metrics.active()
        if registry is not None:
            mode = "inline" if self.n_workers == 0 else "process"
            registry.counter(
                "reghd_distributed_shards_total", mode=mode
            ).inc(len(deltas))
            registry.counter("reghd_distributed_samples_total").inc(
                int(sum(d.n_samples for d in deltas))
            )
            registry.counter(
                "reghd_distributed_delta_bytes_total", direction="shard"
            ).inc(int(sum(d.nbytes for d in deltas)))
        return deltas, pinned

    # -- the reduce half ---------------------------------------------------

    def reduce(self, deltas: list[ModelDelta]) -> ModelDelta:
        """Ordered merge of shard deltas (the configured reduction)."""
        with span("distributed/reduce"):
            merged = merge_deltas(deltas, reduction=self.reduction)
        registry = _metrics.active()
        if registry is not None:
            registry.counter(
                "reghd_distributed_delta_bytes_total", direction="merged"
            ).inc(int(merged.nbytes))
        return merged

    def train(self, X: ArrayLike, y: ArrayLike) -> ShardRoundReport:
        """One full round: map, ordered reduce, apply to the base model."""
        with span("distributed/round"):
            deltas, pinned = self._map(X, y)
            merged = self.reduce(deltas)
            self.model.apply_delta(merged)
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_distributed_rounds_total").inc()
        return ShardRoundReport(
            n_shards=self.n_shards,
            n_workers=self.n_workers,
            shard_samples=[int(d.n_samples) for d in deltas],
            shard_bytes=int(sum(d.nbytes for d in deltas)),
            merged_bytes=int(merged.nbytes),
            blas_pinned=pinned,
            merged=merged,
        )


def train_sharded(
    model,
    X: ArrayLike,
    y: ArrayLike,
    *,
    n_shards: int,
    n_workers: int = 0,
    batch_rows: int | None = None,
    reduction: str = "mean",
    rounds: int = 1,
) -> list[ShardRoundReport]:
    """Convenience wrapper: run ``rounds`` map-reduce rounds over (X, y).

    Each round re-broadcasts the updated base state, so later rounds
    refine the merged model the way iterative retraining refines a
    sequential one.
    """
    if rounds < 1:
        raise ConfigurationError(f"rounds must be >= 1, got {rounds}")
    trainer = ShardTrainer(
        model,
        n_shards=n_shards,
        n_workers=n_workers,
        batch_rows=batch_rows,
        reduction=reduction,
    )
    return [trainer.train(X, y) for _ in range(rounds)]
