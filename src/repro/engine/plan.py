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
(paper Sec. 3: D-*bit* logic in place of D-element arithmetic).

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
)
from repro.telemetry import metrics as _metrics
from repro.types import ArrayLike, FloatArray
from repro.utils.rng import derive_generator
from repro.utils.validation import check_2d


@dataclass(frozen=True)
class EncoderSpec:
    """Seed provenance of a :class:`NonlinearEncoder`, in place of its arrays.

    A rematerialised plan (``compile_model(..., rematerialize=True)``)
    stores this spec instead of the frozen ``(in_features, dim)``
    projection matrix; :meth:`materialize` re-draws bit-identical bases
    and phases from the seeded RNG at execution time — trading a cheap
    regeneration per predict call for most of the plan's memory (the
    Schmuck et al. rematerialisation trade, PAPERS.md).
    """

    in_features: int
    dim: int
    seed: int
    base: str
    scale: float | None

    def materialize(self) -> NonlinearEncoder:
        """Re-draw the encoder exactly as the model constructor did."""
        return NonlinearEncoder(
            self.in_features,
            self.dim,
            derive_generator(self.seed, 0),
            base=self.base,
            scale=self.scale,
        )


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
    n_workers: int
    #: the kernel backend the executor dispatches through
    backend: KernelBackend
    #: frozen cluster-search operands (Eq. 5 or its Hamming replacement)
    cluster_op: FrozenClusterOperand
    #: frozen model dot-product operands (Eq. 6 under the Sec.-3.2 scheme)
    model_op: FrozenModelOperand
    # encoder snapshot (fast fused path) or opaque fallback encoder
    enc_bases: FloatArray | None = field(default=None)
    enc_phases: FloatArray | None = field(default=None)
    enc_scale: float = 1.0
    encoder: Encoder | None = field(default=None)
    #: precomputed ``sin(phases)`` for the fused single-trig encode
    enc_sin_phases: FloatArray | None = field(default=None)
    #: seed provenance replacing the stored projection (rematerialize=True)
    enc_spec: "EncoderSpec | None" = field(default=None)
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
        unpacked_sign_search = (
            self.cluster_quant is not ClusterQuant.NONE and not self.packed_sims
        )
        unpacked_binary_query = (
            self.predict_quant.query_is_binary and not self.packed_dots
        )
        return unpacked_sign_search or unpacked_binary_query

    @property
    def rematerialized(self) -> bool:
        """Whether the encoder operands regenerate from the seeded RNG."""
        return self.enc_spec is not None

    @property
    def nbytes(self) -> int:
        """Total bytes held by the plan's operand arrays.

        A rematerialised plan stores no projection matrix, so its count
        drops to the cluster/model operands plus scalars — the memory
        the ``rematerialize=True`` trade actually saves.
        """
        total = 0
        for arr in (self.enc_bases, self.enc_phases, self.enc_sin_phases):
            if arr is not None:
                total += arr.nbytes
        for arr in self.cluster_op.arrays + self.model_op.arrays:
            total += arr.nbytes
        return total

    def encoder_operands(self) -> EncoderOperands | None:
        """Projection operands for this predict call, stored or re-drawn.

        Returns ``None`` for plans serving an opaque fallback encoder.
        Rematerialised plans regenerate bases/phases from
        :class:`EncoderSpec` here — once per :func:`execute_plan` call,
        shared by every tile, dropped afterwards.
        """
        if self.enc_bases is not None:
            return EncoderOperands(
                self.enc_bases,
                self.enc_phases,
                self.enc_scale,
                self.enc_sin_phases,
            )
        if self.enc_spec is None:
            return None
        encoder = self.enc_spec.materialize()
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_plan_rematerializations_total").inc()
        bases = np.asarray(encoder.bases)
        phases = np.asarray(encoder.phases)
        sin_phases = np.sin(phases) if self.fused_encode else None
        return EncoderOperands(bases, phases, self.enc_scale, sin_phases)

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
        full-precision operands whole when the model changed.  The
        per-row split counts into the lineage's :attr:`refresh_stats`.

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
        tiles on up to ``n_workers`` threads.
        """
        from repro.engine.executor import execute_plan

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
            f"backend={'+'.join(stages)}, tile_rows={self.tile_rows}, "
            f"n_workers={self.n_workers})"
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
    n_workers: int = 1,
    rematerialize: bool = False,
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
        Rows per execution tile.  ``None`` sizes tiles so one worker's
        scratch stays near 24 MiB (:func:`auto_tile_rows`).
    n_workers:
        Thread count for :meth:`CompiledPlan.predict`.  ``1`` runs the
        single-threaded fallback loop with one scratch set.
    rematerialize:
        Store the encoder's *seed provenance* instead of its projection
        matrix: :meth:`CompiledPlan.encoder_operands` then re-draws
        bit-identical bases/phases from the seeded RNG per predict call,
        shrinking the resident plan by the ``(in_features, D)`` + two
        ``(D,)`` arrays.  Requires a :class:`NonlinearEncoder` built from
        a configured integer seed; the regenerated arrays are verified
        against the live encoder at compile time.

    Raises
    ------
    NotFittedError
        If the model has not been fitted.
    ConfigurationError
        If ``model`` is not a :class:`MultiModelRegHD` or the knobs are
        out of range.
    """
    if not isinstance(model, MultiModelRegHD):
        raise ConfigurationError(
            f"compile_model supports MultiModelRegHD, got "
            f"{type(model).__name__}"
        )
    if not model.fitted:
        raise NotFittedError("compile_model called before fit")
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
    cfg = model.config

    runtime = _resolve_compile_backend(model, backend)
    packed_sims = runtime.packs_similarities(cfg.cluster_quant)
    packed_dots = runtime.packs_dots(cfg.predict_quant)

    # Encoder snapshot: the fused tile kernel needs the projection
    # operands; other encoder types fall back to their encode_batch.
    enc_bases = enc_phases = enc_sin_phases = None
    enc_scale = 1.0
    encoder: Encoder | None = None
    enc_spec: EncoderSpec | None = None
    fused_encode = False
    if type(model.encoder) is NonlinearEncoder:
        enc_scale = float(model.encoder.scale)
        fused_encode = runtime.fuses_encode(cfg.cluster_quant, cfg.predict_quant)
        if rematerialize:
            if cfg.seed is None:
                raise ConfigurationError(
                    "rematerialize=True requires a configured integer seed; "
                    "an unseeded encoder cannot be re-drawn"
                )
            enc_spec = EncoderSpec(
                in_features=model.in_features,
                dim=cfg.dim,
                seed=int(cfg.seed),
                base=cfg.encoder_base,
                scale=cfg.encoder_scale,
            )
            regenerated = enc_spec.materialize()
            if not (
                np.array_equal(regenerated.bases, model.encoder.bases)
                and np.array_equal(regenerated.phases, model.encoder.phases)
                and float(regenerated.scale) == enc_scale
            ):
                raise ConfigurationError(
                    "rematerialize=True: regenerating the encoder from "
                    "the configured seed did not reproduce the live "
                    "projection (the encoder was not built by this "
                    "model's constructor)"
                )
        else:
            enc_bases = frozen_copy(model.encoder.bases)
            enc_phases = frozen_copy(model.encoder.phases)
            if fused_encode:
                enc_sin_phases = frozen_copy(np.sin(model.encoder.phases))
    else:
        if rematerialize:
            raise ConfigurationError(
                "rematerialize=True requires a NonlinearEncoder, got "
                f"{type(model.encoder).__name__}"
            )
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
        n_workers=int(n_workers),
        backend=runtime,
        cluster_op=cluster_op,
        model_op=model_op,
        enc_bases=enc_bases,
        enc_phases=enc_phases,
        enc_scale=enc_scale,
        encoder=encoder,
        enc_sin_phases=enc_sin_phases,
        enc_spec=enc_spec,
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
