"""Compile a fitted RegHD model into a frozen execution plan.

:func:`compile_model` snapshots everything prediction needs — the encoder
projection, the target scaling, and the *effective* cluster/model
hypervectors under the configured Section-3 quantisation — into a
:class:`CompiledPlan`.  The operands are frozen
:class:`~repro.runtime.FrozenClusterOperand` /
:class:`~repro.runtime.FrozenModelOperand` snapshots built for a
:class:`~repro.runtime.KernelBackend`: under ``packed_v2`` the
binary operands are bit-packed into ``uint64`` words at compile time, so
at serve time the quantised similarity search and the fully-binary model
dot products run as XOR + popcount instead of float matrix products
(paper Sec. 3: D-*bit* logic in place of D-element arithmetic).  When
both stages run packed, the cluster and model sign words are the two row
ranges of one read-only ``(2k, W)`` array, so a tile's query answers
both stages from one XOR-popcount pass against every stored row, as an
associative memory does.

The plan is a value, not a view: further training of the source model
does not change a compiled plan, a plan never mutates the model, and
nothing mutates a plan.  That makes plans safe to hand to serving
threads while the online learner keeps updating.  When the learner wants
a plan to catch up it calls :meth:`CompiledPlan.refresh`, which returns
a *new* plan through the same snapshot path as :func:`compile_model`:
unchanged operand arrays are shared and only the rows whose sign pattern
actually moved are re-packed, so the learner swaps in a fresh plan after
every absorbed batch (see :meth:`repro.streaming.StreamingRegHD.update`)
instead of recompiling it.
"""

from __future__ import annotations

import dataclasses
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.encoding.base import Encoder
from repro.encoding.nonlinear import NonlinearEncoder
from repro.engine.executor import execute_plan
from repro.exceptions import (
    ConfigurationError,
    EncodingError,
    NotFittedError,
)
from repro.runtime import (
    BACKEND_ENV_VAR,
    EncoderOperands,
    FrozenClusterOperand,
    FrozenModelOperand,
    KernelBackend,
    freeze_cluster_operand,
    freeze_model_operand,
    frozen_copy,
    resolve_backend,
    stack_sign_words,
)
from repro.telemetry import metrics as _metrics
from repro.types import ArrayLike, FloatArray
from repro.utils.validation import check_2d


class RefreshStats(dict):
    """Snapshot/refresh counters of a plan lineage, with dict compatibility.

    A lineage is one compiled plan plus every plan refreshed from it;
    they all count into one shared set of counters.  Keys: ``compiles``
    (full compilations — always 1 for a lineage), ``rows_snapshotted``
    (operand rows copied at compile time), ``refreshes`` (incremental
    :meth:`CompiledPlan.refresh` calls), ``rows_refreshed`` /
    ``rows_reused`` (per-row refresh split).  A full ``compile()`` and an
    incremental ``refresh()`` are therefore distinguishable: compiles
    touch ``compiles``/``rows_snapshotted`` only, refreshes touch the
    other three.

    :meth:`reset` zeroes the lineage's *incremental* counters
    (``refreshes``, ``rows_refreshed``, ``rows_reused``), so a caller can
    measure one window of streaming refreshes; the compile-time
    provenance keys are preserved.  The instance itself is a value copy —
    mutating it does not touch the plans.
    """

    def __init__(self, counters: dict):
        super().__init__(counters)
        self._counters = counters

    def reset(self) -> None:
        """Zero the lineage's incremental refresh counters."""
        for key in ("refreshes", "rows_refreshed", "rows_reused"):
            self._counters[key] = 0
            self[key] = 0


@dataclass(frozen=True, repr=False, eq=False)
class CompiledPlan:
    """An executable snapshot of a fitted RegHD model.

    Instances are produced by :func:`compile_model` (or the convenience
    :meth:`MultiModelRegHD.compile <repro.core.multi.MultiModelRegHD.compile>`)
    and execute prediction through the tiled engine via :meth:`predict`.
    A plan is immutable: all operand arrays are read-only, the plan never
    mutates the model it was compiled from, and training the model does
    not change the plan.  :meth:`refresh` returns a new plan for the
    further-trained model and leaves this one as it was.

    The operands live in ``cluster_op`` / ``model_op``
    (:class:`~repro.runtime.FrozenClusterOperand` /
    :class:`~repro.runtime.FrozenModelOperand`); which representation
    each carries depends on the quantisation scheme and the compiled
    backend — full-precision matrices, a float sign matrix, or bit-packed
    ``uint64`` words.
    """

    in_features: int
    dim: int
    n_models: int
    softmax_temp: float
    cluster_quant: ClusterQuant
    predict_quant: PredictQuant
    y_mean: float
    y_scale: float
    packed_sims: bool
    packed_dots: bool
    tile_rows: int
    #: the kernel backend the executor dispatches through
    backend: KernelBackend
    #: frozen cluster-search operands (Eq. 5 or its Hamming replacement)
    cluster_op: FrozenClusterOperand
    #: frozen model dot-product operands (Eq. 6 under the Sec.-3.2 scheme)
    model_op: FrozenModelOperand
    #: projection snapshot of a :class:`NonlinearEncoder` (with
    #: ``sin(phases)`` for the fused single-trig encode), else ``None``
    enc_operands: EncoderOperands | None = field(default=None)
    #: opaque fallback encoder, for any other encoder type
    encoder: Encoder | None = field(default=None)
    #: whether serving runs the fused encode→pack pipeline
    fused_encode: bool = field(default=False)
    #: weak reference to the model the lineage was compiled from
    _source: "weakref.ref | None" = field(default=None)
    #: compile/refresh counters shared by every plan of the lineage
    _stats: dict = field(default_factory=dict)

    @property
    def backend_name(self) -> str:
        """Registry name of the compiled kernel backend."""
        return self.backend.name

    @property
    def packed(self) -> bool:
        """Whether any stage of this plan runs on packed words."""
        return self.packed_sims or self.packed_dots

    @property
    def needs_normalized(self) -> bool:
        """Whether the pipeline must materialise the normalised encoding.

        Fully sign-based stages (packed or float sign search, binary
        queries) are invariant to the positive per-row normalisation, so
        the ``(tile, D)`` division is skipped unless a full-precision
        stage consumes the normalised rows.
        """
        return (
            self.cluster_quant is ClusterQuant.NONE
            or not self.predict_quant.query_is_binary
        )

    @property
    def needs_signs(self) -> bool:
        """Whether a float ±1 sign matrix of the queries is required."""
        return self.backend.reads_signs(self.cluster_quant, self.predict_quant)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the plan's operand arrays."""
        arrays = self.cluster_op.arrays + self.model_op.arrays
        if self.enc_operands is not None:
            enc = self.enc_operands
            arrays += (enc.bases, enc.phases, enc.sin_phases)
        return sum(arr.nbytes for arr in arrays if arr is not None)

    def encoder_operands(self) -> EncoderOperands | None:
        """The stored projection operands each predict call encodes with
        (``None`` for plans serving an opaque fallback encoder)."""
        return self.enc_operands

    # -- incremental refresh ------------------------------------------------

    def refresh(self, model: MultiModelRegHD) -> "CompiledPlan":
        """A new plan for the (further-trained) source model.

        This plan is left untouched, so a reader still holding it keeps
        serving one consistent model state; the caller swaps the returned
        plan in with one assignment.  The operands go through
        :func:`compile_model`'s own snapshot path: the new plan shares
        every operand array whose source did not move, re-packs only the
        rows whose sign pattern moved (tracked through
        :attr:`repro.runtime.DualCopy.sign_versions`), and copies
        full-precision operands whole when the model changed.  A plan
        whose sign words are stacked shares its stack while no row
        re-packs, and otherwise copies it into a new one.  The per-row
        split counts into the lineage's :attr:`refresh_stats`.

        ``model`` must be the instance this plan was compiled from —
        refreshing from an unrelated model would silently mix two models'
        state, so it raises :class:`ConfigurationError` instead.
        """
        if self._source is None or self._source() is not model:
            raise ConfigurationError(
                "CompiledPlan.refresh requires the model the plan was "
                "compiled from"
            )
        cluster_op, cluster_rows = freeze_cluster_operand(
            model.clusters,
            self.cluster_quant,
            packed=self.packed_sims,
            previous=self.cluster_op,
        )
        model_op, model_rows = freeze_model_operand(
            model.models,
            self.predict_quant,
            packed=self.packed_dots,
            previous=self.model_op,
        )
        if self.cluster_op.stack is not None:
            stack_sign_words(cluster_op, model_op, self.cluster_op.stack)
        refreshed = cluster_rows + model_rows
        reused = 2 * self.n_models - refreshed
        stats = self._stats
        stats["refreshes"] += 1
        stats["rows_refreshed"] += refreshed
        stats["rows_reused"] += reused
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_plan_refreshes_total").inc()
            if refreshed:
                registry.counter(
                    "reghd_plan_rows_total", event="refreshed"
                ).inc(refreshed)
            if reused:
                registry.counter(
                    "reghd_plan_rows_total", event="reused"
                ).inc(reused)
        return dataclasses.replace(
            self,
            y_mean=float(model.scaler.mean),
            y_scale=float(model.scaler.scale),
            cluster_op=cluster_op,
            model_op=model_op,
        )

    @property
    def refresh_stats(self) -> RefreshStats:
        """Cumulative compile/refresh counters of the lineage (a value copy).

        Behaves as a plain dict (``stats["rows_refreshed"]`` etc.) and
        additionally offers :meth:`RefreshStats.reset` to zero the
        lineage's incremental refresh counters.  Exported registries
        mirror these as the ``reghd_plan_*`` counters.
        """
        return RefreshStats(self._stats)

    def predict(self, X: ArrayLike) -> FloatArray:
        """Predict targets (original units) for raw feature rows.

        Equivalent to :meth:`MultiModelRegHD.predict
        <repro.core.multi.MultiModelRegHD.predict>` on the model state at
        compile time (bit-exact packed similarity scores; predictions
        match to float rounding).  Runs in the compile-time ``tile_rows``
        tiles, in the calling thread; a tile's encode may hand half of a
        split-sized elementwise pass to the process's one helper thread
        (:mod:`repro.ops.halves`).
        """
        X_arr = check_2d("X", X)
        if X_arr.shape[1] != self.in_features:
            raise EncodingError(
                f"expected {self.in_features} features, got {X_arr.shape[1]}"
            )
        return execute_plan(self, X_arr)

    def __repr__(self) -> str:
        stages = []
        stages.append("packed-sims" if self.packed_sims else "float-sims")
        stages.append("packed-dots" if self.packed_dots else "float-dots")
        return (
            f"CompiledPlan(in_features={self.in_features}, dim={self.dim}, "
            f"k={self.n_models}, cluster_quant={self.cluster_quant.value}, "
            f"predict_quant={self.predict_quant.value}, "
            f"backend={'+'.join(stages)}, tile_rows={self.tile_rows})"
        )


def auto_tile_rows(
    dim: int, budget_bytes: int = 24 << 20, *, fused: bool = False
) -> int:
    """Tile height whose scratch set fits the budget.

    Unfused tiles hold ~17 bytes per element of the full ``(rows, dim)``
    slab set.  Fused tiles only hold block-wide slabs plus the packed
    words, so the same budget buys far taller tiles — fewer per-tile
    dispatches for the same peak memory.
    """
    if fused:
        from repro.runtime import fused_block_cols

        per_row = 17 * fused_block_cols(dim) + max(8, dim // 8)
    else:
        per_row = 17 * max(1, dim)
    rows = budget_bytes // per_row
    return int(min(4096, max(64, rows)))


def _resolve_compile_backend(
    model: MultiModelRegHD, backend: "KernelBackend | str | None"
) -> KernelBackend:
    """Pick the serving backend: backend > config > env > auto.

    The auto default keeps the engine's historical behaviour — packed
    operands exactly where a stage benefits (quantised cluster search or
    fully-binary dots), dense otherwise.
    """
    cfg = model.config
    if (
        backend is not None
        or cfg.backend is not None
        or os.environ.get(BACKEND_ENV_VAR)
    ):
        return resolve_backend(backend if backend is not None else cfg.backend)
    beneficial = (
        cfg.cluster_quant is not ClusterQuant.NONE
        or cfg.predict_quant is PredictQuant.BINARY_BOTH
    )
    return resolve_backend("packed_v2" if beneficial else "dense")


def compile_model(
    model: MultiModelRegHD,
    *,
    backend: "KernelBackend | str | None" = None,
    tile_rows: int | None = None,
) -> CompiledPlan:
    """Compile a fitted :class:`MultiModelRegHD` into a :class:`CompiledPlan`.

    Parameters
    ----------
    model:
        A fitted multi-model RegHD instance.  The plan copies every
        operand it needs; the model can keep training afterwards without
        affecting the plan (:meth:`CompiledPlan.refresh` returns a new
        plan that catches up).
    backend:
        Execution-runtime backend for the serving kernels (a registry
        name or instance): ``"dense"`` keeps every stage on float
        operands, ``"packed_v2"`` runs XOR + popcount wherever the
        quantisation scheme permits it.  ``None`` defers to
        ``model.config.backend``, then the ``REPRO_BACKEND`` environment
        variable, then the automatic choice: ``packed_v2`` exactly where
        a stage benefits from it.
    tile_rows:
        Rows per execution tile.  ``None`` sizes tiles so the scratch
        set stays near 24 MiB (:func:`auto_tile_rows`).

    Raises
    ------
    NotFittedError
        If the model has not been fitted.
    ConfigurationError
        If ``model`` is not a :class:`MultiModelRegHD` or ``tile_rows``
        is out of range.
    """
    if not isinstance(model, MultiModelRegHD):
        raise ConfigurationError(
            f"compile_model supports MultiModelRegHD, got "
            f"{type(model).__name__}"
        )
    if not model.fitted:
        raise NotFittedError("compile_model called before fit")
    cfg = model.config

    runtime = _resolve_compile_backend(model, backend)
    packed_sims = runtime.packs_similarities(cfg.cluster_quant)
    packed_dots = runtime.packs_dots(cfg.predict_quant)

    # Encoder snapshot: the fused tile kernel needs the projection
    # operands; other encoder types fall back to their encode_batch.
    enc_operands: EncoderOperands | None = None
    encoder: Encoder | None = None
    fused_encode = False
    if type(model.encoder) is NonlinearEncoder:
        fused_encode = runtime.fuses_encode(cfg.cluster_quant, cfg.predict_quant)
        enc_operands = EncoderOperands(
            frozen_copy(model.encoder.bases),
            frozen_copy(model.encoder.phases),
            float(model.encoder.scale),
            frozen_copy(model.encoder.sin_phases),
        )
    else:
        encoder = model.encoder

    if tile_rows is None:
        tile_rows = auto_tile_rows(cfg.dim, fused=fused_encode)
    elif tile_rows < 1:
        raise ConfigurationError(f"tile_rows must be >= 1, got {tile_rows}")

    cluster_op, cluster_rows = freeze_cluster_operand(
        model.clusters, cfg.cluster_quant, packed=packed_sims
    )
    model_op, model_rows = freeze_model_operand(
        model.models, cfg.predict_quant, packed=packed_dots
    )
    if packed_sims and packed_dots:
        stack_sign_words(cluster_op, model_op)
    rows_snapshotted = cluster_rows + model_rows

    plan = CompiledPlan(
        in_features=model.in_features,
        dim=cfg.dim,
        n_models=cfg.n_models,
        softmax_temp=float(cfg.softmax_temp),
        cluster_quant=cfg.cluster_quant,
        predict_quant=cfg.predict_quant,
        y_mean=float(model.scaler.mean),
        y_scale=float(model.scaler.scale),
        packed_sims=packed_sims,
        packed_dots=packed_dots,
        tile_rows=int(tile_rows),
        backend=runtime,
        cluster_op=cluster_op,
        model_op=model_op,
        enc_operands=enc_operands,
        encoder=encoder,
        fused_encode=fused_encode,
        _source=weakref.ref(model),
        _stats={
            "compiles": 1,
            "rows_snapshotted": rows_snapshotted,
            "refreshes": 0,
            "rows_refreshed": 0,
            "rows_reused": 0,
        },
    )
    registry = _metrics.active()
    if registry is not None:
        registry.counter("reghd_plan_compiles_total").inc()
        registry.counter(
            "reghd_plan_rows_total", event="snapshotted"
        ).inc(rows_snapshotted)
    return plan
