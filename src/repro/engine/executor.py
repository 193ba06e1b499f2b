"""Tiled execution of a :class:`CompiledPlan` in the calling thread.

A batch is cut into row tiles; every tile flows through the fused
pipeline (encode → similarity → softmax → dot products → accumulate)
entirely inside one preallocated :class:`~repro.engine.kernels.TileScratch`,
so peak memory is one scratch set plus the output vector — a
million-row batch costs no more transient memory than one tile.  Each
call allocates its own scratch, so concurrent callers share nothing
mutable.

Plans whose backend fuses encode→pack (``plan.fused_encode``) skip the
float pipeline entirely: raw feature rows become packed ``uint64`` sign
words plus per-row scales in one kernel, and the ``(tile, D)`` float
encoding is never materialised.

Either encode hands half of a split-sized elementwise pass to the
process's one helper thread (:mod:`repro.ops.halves`); everything else
of a tile runs in the calling thread.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.encoding.nonlinear import encode_into
from repro.engine.kernels import TileScratch, packed_query_words, query_scales
from repro.ops.normalize import row_norms
from repro.runtime import EncoderOperands, Query, kernels
from repro.telemetry import metrics as _metrics
from repro.telemetry import timing as _timing
from repro.telemetry import tracing as _tracing
from repro.types import FloatArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.plan import CompiledPlan


def _run_tile(
    plan: "CompiledPlan",
    X: FloatArray,
    lo: int,
    hi: int,
    out: FloatArray,
    scratch: TileScratch,
    enc: EncoderOperands | None,
) -> None:
    """Run one row tile through the fused pipeline into ``out[lo:hi]``.

    With telemetry on, each stage boundary reads the clock once; the
    stage's duration goes to the serving latency histogram and, inside
    an open trace, to :func:`repro.telemetry.tracing.stage`.  The clock
    is read through the timing module so a single monkeypatch pins every
    span timestamp.
    """
    X_tile = X[lo:hi]
    # Serving latency split by stage; `registry is None` is the entire
    # cost of the disabled path (no clock reads, no metric lookups).
    registry = _metrics.active()
    t0 = _timing.monotonic() if registry is not None else 0.0

    if plan.fused_encode:
        # Fused encode→pack: raw rows straight to packed words + scales,
        # no float hypervector batch.  Exactly the stages a fully-packed
        # plan consumes (needs_normalized and needs_signs are False).
        words, q_scales = plan.backend.encode_pack(X_tile, enc, scratch.fused)
        query = Query(None, words=words, scales=q_scales)
        signs = None
    else:
        # 1. Encode (Eq. 1) into the main scratch buffer when the plan
        #    carries a projection snapshot.
        if enc is not None:
            S = encode_into(X_tile, *enc, scratch.main[: hi - lo])
        else:
            S = np.asarray(plan.encoder.encode_batch(X_tile), dtype=np.float64)
        norms = row_norms(S)

        # 2. Raw-encoding derivatives, before S is normalised in place:
        #    sign bits / words and the binary-query scale are all invariant
        #    to the positive row normalisation.
        q_scales = (
            query_scales(S, norms, scratch)
            if plan.predict_quant.query_is_binary
            else None
        )
        words = packed_query_words(S, scratch) if plan.packed else None
        signs = kernels.sign_rows(S, scratch.aux) if plan.needs_signs else None
        if plan.needs_normalized:
            np.divide(S, norms[:, np.newaxis], out=S)
        query = Query(S, signs=signs, words=words, scales=q_scales)
    if registry is not None:
        t1 = _timing.monotonic()
        registry.histogram(
            "reghd_serving_latency_seconds", stage="encode"
        ).observe(t1 - t0)
        _tracing.stage("tile/encode", t0, t1, rows=hi - lo)
        t0 = t1

    # 3. Cluster similarities (Eq. 5) and softmax confidences, dispatched
    #    through the plan's kernel backend over the scratch-derived query.
    backend = plan.backend
    sims = backend.cluster_similarities(query, plan.cluster_op)
    conf = backend.confidences(sims, plan.softmax_temp)
    if registry is not None:
        t1 = _timing.monotonic()
        registry.histogram(
            "reghd_serving_latency_seconds", stage="search"
        ).observe(t1 - t0)
        _tracing.stage("tile/search", t0, t1, rows=hi - lo)
        t0 = t1

    # 4. Model dot products (Eq. 6 under the Sec.-3.2 scheme).  The
    #    binarised queries are built in place in the sign buffer — only
    #    after the similarities above are done reading it.
    if not plan.packed_dots and plan.predict_quant.query_is_binary:
        query.binarized = np.multiply(
            signs, q_scales[:, np.newaxis], out=signs
        )
    dots = backend.model_dots(query, plan.model_op)

    # 5. Confidence-weighted accumulation, mapped back to target units
    #    straight into the output rows.
    y = out[lo:hi]
    np.multiply(backend.weighted_prediction(conf, dots), plan.y_scale, out=y)
    np.add(y, plan.y_mean, out=y)
    if registry is not None:
        t1 = _timing.monotonic()
        registry.histogram(
            "reghd_serving_latency_seconds", stage="accumulate"
        ).observe(t1 - t0)
        _tracing.stage("tile/accumulate", t0, t1, rows=hi - lo)


def execute_plan(plan: "CompiledPlan", X: FloatArray) -> FloatArray:
    """Predict a full batch through the tiled pipeline, in
    ``plan.tile_rows``-row tiles on one scratch set."""
    n = X.shape[0]
    out = np.empty(n, dtype=np.float64)
    if n == 0:
        return out
    registry = _metrics.active()
    if registry is not None:
        registry.counter("reghd_serving_rows_total").inc(n)
    tile_rows = plan.tile_rows
    enc = plan.encoder_operands()
    scratch = TileScratch(min(tile_rows, n), plan.dim, fused=plan.fused_encode)
    for lo in range(0, n, tile_rows):
        _run_tile(plan, X, lo, min(lo + tile_rows, n), out, scratch, enc)
    return out
