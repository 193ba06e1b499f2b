"""Multi-model RegHD regression (paper Sec. 2.4) with Section-3 quantisation.

RegHD-k keeps two sets of k hypervectors:

* **cluster hypervectors** ``C_1..C_k`` — initialised to random bipolar
  values; they cluster the encoded inputs by similarity;
* **model hypervectors** ``M_1..M_k`` — zero-initialised; each is the
  regression model for one input cluster.

Per training sample (Fig. 4):

1. similarity of the encoded input to every cluster (Eq. 5; Hamming on
   binary copies under the Sec.-3.1 framework),
2. softmax normalisation into per-cluster confidences ``delta'``,
3. weighted prediction ``y_hat = sum_i delta'_i (M_i . S)`` (Eq. 6),
4. error-driven model update ``M_i += alpha * delta'_i * (y - y_hat) * S``
   (Eq. 7 — the per-model confidence weighting is what lets the k models
   specialise; see ``update_weighting`` in :class:`RegHDConfig`),
5. cluster update of the most similar centre
   ``C_l += (1 - delta_l) * S`` (Eq. 8 — the ``1 - delta`` factor prevents
   dominant patterns from saturating the centre).

Quantisation follows the dual-copy framework of Section 3: all updates land
on integer copies; binary copies are re-derived once per epoch and serve
the similarity search (:class:`ClusterQuant`) and/or the prediction dot
products (:class:`PredictQuant`).

The shared pipeline (validation, encoding, target scaling, fit skeleton)
lives in :class:`~repro.core.estimator.BaseRegHDEstimator`; this class
contributes the clustering/regression updates and its learned state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import ConvergencePolicy, RegHDConfig
from repro.core.estimator import (
    BaseRegHDEstimator,
    encoder_from_state,
    take_array,
)
from repro.core.quantization import ClusterQuant, DualCopy
from repro.encoding.base import Encoder
from repro.encoding.nonlinear import NonlinearEncoder
from repro.exceptions import ConfigurationError, NotFittedError
from repro.ops.generate import random_bipolar
from repro.registry import register_model
from repro.robust.conformal import AdaptiveConformal
from repro.robust.distribution import DistributionalPrediction, mixture_moments
from repro.runtime import (
    ClusterOperand,
    ModelOperand,
    Query,
    resolve_backend,
)
from repro.telemetry import metrics as _metrics
from repro.types import ArrayLike, FloatArray
from repro.utils.rng import derive_generator
from repro.utils.validation import check_2d

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine import CompiledPlan


@register_model("multi")
class MultiModelRegHD(BaseRegHDEstimator):
    """RegHD-k: clustering and regression learned simultaneously.

    Parameters
    ----------
    in_features:
        Number of raw input features.
    config:
        Full hyper-parameter bundle; see :class:`RegHDConfig`.  Keyword
        overrides may be passed instead of / on top of a config object.
    encoder:
        Optional pre-built encoder replacing the default
        :class:`NonlinearEncoder`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import MultiModelRegHD, RegHDConfig
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(64, 5)); y = np.sin(X[:, 0]) + X[:, 1]
    >>> model = MultiModelRegHD(5, RegHDConfig(dim=512, n_models=4))
    >>> _ = model.fit(X, y)
    >>> model.predict(X[:2]).shape
    (2,)
    """

    def __init__(
        self,
        in_features: int,
        config: RegHDConfig | None = None,
        *,
        encoder: Encoder | None = None,
        **overrides: object,
    ):
        base = config or RegHDConfig()
        if overrides:
            base = base.with_overrides(**overrides)
        self.config = base
        # A config telemetry pin flips the process-wide sink before the
        # backend resolves, so the instrumentation decision below sees it.
        if base.telemetry is not None:
            _metrics.set_enabled(base.telemetry)
        # Kernel backend executing every similarity/dot/update below; the
        # config pin wins over the REPRO_BACKEND environment default.
        self.runtime = resolve_backend(base.backend)
        super().__init__(
            self.resolve_encoder(
                in_features,
                encoder,
                lambda: NonlinearEncoder(
                    in_features,
                    base.dim,
                    derive_generator(base.seed, 0),
                    base=base.encoder_base,
                    scale=base.encoder_scale,
                ),
            )
        )
        if self.encoder.dim != base.dim:
            raise ConfigurationError(
                f"encoder dim {self.encoder.dim} != config dim {base.dim}"
            )
        self._init_state()

    def _init_state(self) -> None:
        """(Re-)initialise clusters and models.

        Generators are re-derived from the seed here so that two ``fit``
        calls on the same instance are bit-identical.
        """
        cfg = self.config
        # Random bipolar cluster centres, scaled to unit norm so that
        # (1 - delta)-weighted updates of unit-norm encodings move them at a
        # useful rate.  Cosine similarity is scale-invariant, so this does
        # not change Eq. (5).
        init = random_bipolar(
            cfg.n_models, cfg.dim, derive_generator(cfg.seed, 1)
        )
        init = init.astype(np.float64) / np.sqrt(cfg.dim)
        self.clusters = DualCopy(init)
        self.models = DualCopy(np.zeros((cfg.n_models, cfg.dim)))
        # Live runtime operands over the dual copies; rebuilt here because
        # a re-fit swaps in fresh DualCopy objects.
        self._cluster_op = ClusterOperand(self.clusters, cfg.cluster_quant)
        self._model_op = ModelOperand(self.models, cfg.predict_quant)
        self._train_cache = None

    # -- similarity / confidence ------------------------------------------

    def _query(self, S: FloatArray | Query) -> Query:
        """Wrap a batch for the runtime, reusing epoch-cached operands.

        A :class:`Query` passes through as is.  For a matrix, identity
        check (``cache.S is S``): the trainer presents the same encoded
        matrix every epoch, so its cached packed operands apply exactly
        when the caller passes that matrix itself.
        """
        if isinstance(S, Query):
            return S
        cache = self._train_cache
        registry = _metrics.active()
        if cache is not None and cache.S is S:
            if registry is not None:
                registry.counter(
                    "reghd_cache_events_total", cache="query", event="hit"
                ).inc()
            return cache.query()
        if registry is not None and cache is not None:
            registry.counter(
                "reghd_cache_events_total", cache="query", event="miss"
            ).inc()
        return Query(S)

    def _cluster_similarities(self, query: Query) -> FloatArray:
        """Eq. (5) (or its Hamming replacement) for a batch: ``(n, k)``."""
        return self.runtime.cluster_similarities(query, self._cluster_op)

    def _confidences(self, sims: FloatArray) -> FloatArray:
        """Softmax normalisation block of Fig. 4: ``delta'``."""
        return self.runtime.confidences(sims, self.config.softmax_temp)

    # -- prediction ---------------------------------------------------------

    def _effective_models(self) -> FloatArray:
        """The Sec.-3.2 model operand: binary view when the scheme says so."""
        return self._model_op.matT.T

    def predict_encoded(self, S: FloatArray | Query) -> FloatArray:
        """Eq. (6): confidence-weighted accumulation over all k models.

        ``S`` is an encoded matrix or a :class:`Query` over one.
        """
        query = self._query(S)
        sims = self._cluster_similarities(query)
        conf = self._confidences(sims)
        dots = self.runtime.model_dots(query, self._model_op)
        return self.runtime.weighted_prediction(conf, dots)

    # -- training -----------------------------------------------------------

    def _model_update(
        self,
        S: FloatArray,
        conf: FloatArray,
        errors: FloatArray,
    ) -> None:
        lr = self.config.lr
        weighting = self.config.update_weighting
        if weighting == "confidence":
            weights = conf * errors[:, np.newaxis]  # (n, k)
        elif weighting == "argmax":
            weights = np.zeros_like(conf)
            top = np.argmax(conf, axis=1)
            weights[np.arange(len(top)), top] = errors
        else:  # uniform — Eq. (7) taken literally (ablation only)
            weights = np.repeat(
                errors[:, np.newaxis], self.config.n_models, axis=1
            )
        # Mean over the batch keeps the step size independent of
        # batch_size; batch_size 1 reduces exactly to the online Eq. (7).
        # The step lands through the delta sink so a recording span
        # captures it.
        self._push_update(
            "models_integer",
            self.runtime.weighted_model_step(weights, S, lr),
        )

    def _cluster_update(self, S: FloatArray, sims: FloatArray) -> None:
        """Eq. (8): pull the most similar centre toward the input."""
        top = np.argmax(sims, axis=1)
        weights = 1.0 - sims[np.arange(len(top)), top]
        delta = self.runtime.segment_delta(
            top, weights[:, np.newaxis] * S, self.config.n_models
        )
        # Per-cluster sample counts drive the counts-weighted merge: a
        # shard that saw most of cluster c's traffic dominates centre c.
        counts = np.bincount(top, minlength=self.config.n_models)
        if self.config.cluster_quant is ClusterQuant.NAIVE:
            # Naive binarisation: the stored cluster *is* binary, so every
            # update is immediately re-quantised and the accumulated
            # magnitude information is lost (paper Sec. 3.1's failure mode).
            signs = np.sign(self.clusters.integer + delta)
            signs[signs == 0] = 1.0
            self._push_replace(
                "clusters_integer",
                signs / np.sqrt(self.config.dim),
                row_counts=counts,
            )
        else:
            self._push_update("clusters_integer", delta, row_counts=counts)

    def fit_epoch(
        self, S: FloatArray | Query, y: FloatArray, order: np.ndarray
    ) -> None:
        """One pass of mini-batch updates over pre-encoded data.

        ``S`` may be a :class:`Query` (``partial_fit`` on a batch that was
        already encoded for its prequential prediction): each mini-batch
        query is then :meth:`Query.slice` of it, reusing what it has
        derived, and counts as an ``encoded`` cache hit rather than a
        ``query`` cache lookup.
        """
        batch = self.config.batch_size
        if isinstance(S, Query):
            cache, cache_name = S, "encoded"
        else:
            cache, cache_name = self._train_cache, "query"
            if cache is not None and cache.S is not S:
                cache = None  # partial_fit on new data; cache belongs to fit()
        registry = _metrics.active()
        for start in range(0, len(order), batch):
            idx = order[start : start + batch]
            query = cache.slice(idx) if cache is not None else Query(S[idx])
            S_b = query.S
            if registry is not None:
                registry.counter(
                    "reghd_cache_events_total",
                    cache=cache_name,
                    event="hit" if cache is not None else "miss",
                ).inc()
            sims = self._cluster_similarities(query)
            conf = self._confidences(sims)
            dots = self.runtime.model_dots(query, self._model_op)
            errors = y[idx] - self.runtime.weighted_prediction(conf, dots)
            self._model_update(S_b, conf, errors)
            self._cluster_update(S_b, sims)

    def end_epoch(self) -> None:
        """Per-epoch re-binarisation of the dual copies (Fig. 5)."""
        if self.config.cluster_quant is ClusterQuant.FRAMEWORK:
            self.clusters.rebinarize()
        if self.config.predict_quant.model_is_binary:
            self.models.rebinarize()

    def begin_training(self, S: FloatArray) -> None:
        """Trainer hook: build the epoch-spanning packed query cache."""
        registry = _metrics.active()
        if registry is not None:
            registry.gauge("reghd_train_lr").set(self.config.lr)
        self._train_cache = self.runtime.make_training_cache(
            S,
            cluster_quant=self.config.cluster_quant,
            predict_quant=self.config.predict_quant,
        )

    def finish_training(self) -> None:
        """Trainer hook: drop the epoch cache (the trainer always calls it)."""
        self._train_cache = None

    # -- template hooks ------------------------------------------------------

    def _convergence_policy(self) -> ConvergencePolicy:
        return self.config.convergence

    def _fit_shuffle_rng(self):
        return derive_generator(self.config.seed, 2)

    def _reset_learned_state(self) -> None:
        self._init_state()

    def _after_partial_fit(self) -> None:
        self.end_epoch()

    def _encoded_operand(self, query: Query) -> Query:
        return query

    # -- delta hooks ---------------------------------------------------------

    def _delta_spec(self) -> tuple[dict[str, tuple[int, ...]], tuple[str, ...]]:
        shape = (self.config.n_models, self.config.dim)
        return (
            {"clusters_integer": shape, "models_integer": shape},
            ("clusters_integer",),
        )

    def _delta_fingerprint(self) -> dict:
        fingerprint = super()._delta_fingerprint()
        fingerprint["cluster_quant"] = self.config.cluster_quant.value
        fingerprint["predict_quant"] = self.config.predict_quant.value
        return fingerprint

    def _array_view(self, name: str) -> np.ndarray:
        dual = self.clusters if name == "clusters_integer" else self.models
        return dual.integer

    def _apply_array_delta(self, name: str, update) -> None:
        dual = self.clusters if name == "clusters_integer" else self.models
        dual.update_all(update)

    def _replace_array(self, name: str, values) -> None:
        dual = self.clusters if name == "clusters_integer" else self.models
        dual.replace(values)

    def _finish_apply_delta(self, delta) -> None:
        if self.config.cluster_quant is ClusterQuant.NAIVE:
            # Merged NAIVE deltas average binary diffs, so the applied
            # centres drift off the binary lattice; re-project onto the
            # stored-is-binary invariant (same sign convention as the
            # training update).
            signs = np.sign(self.clusters.integer)
            signs[signs == 0] = 1.0
            self.clusters.replace(signs / np.sqrt(self.config.dim))
        # Same re-binarisation a training epoch would end on.
        self.end_epoch()

    # -- public API -----------------------------------------------------------

    def compile(
        self,
        *,
        backend: str | None = None,
        packed: bool | None = None,
        tile_rows: int | None = None,
        n_workers: int = 1,
        rematerialize: bool = False,
    ) -> "CompiledPlan":
        """Freeze the fitted model into an immutable inference plan.

        The plan snapshots the encoder projection, target scaling and the
        effective cluster/model hypervectors — bit-packing the binary
        operands so the quantised similarity search and fully-binary dot
        products run as XOR + popcount — and executes batches through the
        tiled, optionally multi-threaded engine.  See
        :func:`repro.engine.compile_model` for the knobs, including the
        ``backend``/``packed`` serving-backend selection and the
        ``rematerialize`` seed-provenance memory trade.
        """
        from repro.engine import compile_model

        return compile_model(
            self,
            backend=backend,
            packed=packed,
            tile_rows=tile_rows,
            n_workers=n_workers,
            rematerialize=rematerialize,
        )

    def cluster_assignments(self, X: ArrayLike) -> np.ndarray:
        """Index of the most similar cluster centre per input row."""
        if not self._fitted:
            raise NotFittedError("cluster_assignments called before fit")
        S = self._encode_normalized(check_2d("X", X))
        return np.argmax(self._cluster_similarities(Query(S)), axis=1)

    def confidences(self, X: ArrayLike) -> FloatArray:
        """Per-cluster softmax confidences ``delta'`` for each input row."""
        if not self._fitted:
            raise NotFittedError("confidences called before fit")
        S = self._encode_normalized(check_2d("X", X))
        return self._confidences(self._cluster_similarities(Query(S)))

    def responsibilities(
        self, X: ArrayLike, *, temperature: float | None = None
    ) -> FloatArray:
        """Soft-cluster responsibilities per input row: ``(n, k)``.

        The same softmax confidences that weight Eq. (6), read as mixture
        weights.  ``temperature`` overrides the config's ``softmax_temp``
        (an *inverse* temperature β) for this call only — larger values
        sharpen toward the argmax cluster, smaller values flatten toward
        uniform — without touching the sharpness training uses.
        """
        if not self._fitted:
            raise NotFittedError("responsibilities called before fit")
        if temperature is None:
            temperature = self.config.softmax_temp
        elif temperature <= 0:
            raise ConfigurationError(
                f"temperature must be > 0, got {temperature}"
            )
        S = self._encode_normalized(check_2d("X", X))
        sims = self._cluster_similarities(Query(S))
        return self.runtime.confidences(sims, float(temperature))

    def predict_dist(
        self,
        X: ArrayLike,
        *,
        alpha: float = 0.1,
        temperature: float | None = None,
        conformal: AdaptiveConformal | None = None,
    ) -> DistributionalPrediction:
        """Distributional prediction from the k-model mixture.

        The responsibilities are mixture weights over the k per-model dot
        products, so mean and between-model variance come directly from
        :func:`~repro.robust.distribution.mixture_moments` (both mapped
        back to original target units; the mean equals :meth:`predict`
        output exactly when ``temperature`` is not overridden).  The
        ``1 - alpha`` band is conformal when a calibrator is passed —
        distribution-free, from its prequential residuals — otherwise
        Gaussian from the mixture variance (a disagreement heuristic, not
        a calibrated guarantee).
        """
        if not self._fitted:
            raise NotFittedError("predict_dist called before fit")
        if temperature is None:
            temperature = self.config.softmax_temp
        elif temperature <= 0:
            raise ConfigurationError(
                f"temperature must be > 0, got {temperature}"
            )
        S = self._encode_normalized(check_2d("X", X))
        query = self._query(S)
        sims = self._cluster_similarities(query)
        resp = self.runtime.confidences(sims, float(temperature))
        dots = self.runtime.model_dots(query, self._model_op)
        mean_scaled, var_scaled = mixture_moments(resp, dots)
        mean = self._finalize_predictions(mean_scaled)
        # Variances transform with the square of the affine scale.
        variance = var_scaled * self.scaler.scale**2
        if conformal is not None:
            band = conformal.interval(mean)
            lower, upper = band.lower, band.upper
        else:
            lower, upper = DistributionalPrediction.gaussian_band(
                mean, variance, alpha
            )
        return DistributionalPrediction(
            mean=mean,
            variance=variance,
            lower=lower,
            upper=upper,
            responsibilities=resp,
        )

    @property
    def n_models(self) -> int:
        """Number of cluster/model pairs ``k``."""
        return self.config.n_models

    @property
    def dim(self) -> int:
        """Hypervector dimensionality ``D``."""
        return self.config.dim

    # -- state protocol ------------------------------------------------------

    def _model_meta(self) -> dict:
        return {
            "config": self.config.to_meta(),
            "scaler": self.scaler.get_state(),
        }

    def _model_arrays(self) -> dict[str, np.ndarray]:
        return {
            "clusters_integer": np.asarray(self.clusters.integer),
            "models_integer": np.asarray(self.models.integer),
        }

    def _apply_model_state(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        shape = (self.config.n_models, self.config.dim)
        self.clusters.replace(take_array(arrays, "clusters_integer", shape))
        self.models.replace(take_array(arrays, "models_integer", shape))
        self.scaler.set_state(meta["scaler"])

    @classmethod
    def _construct_from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "MultiModelRegHD":
        return cls(
            int(meta["in_features"]),
            RegHDConfig.from_meta(meta["config"]),
            encoder=encoder_from_state(meta["encoder"], arrays),
        )

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"MultiModelRegHD(in_features={self.in_features}, dim={cfg.dim}, "
            f"k={cfg.n_models}, cluster_quant={cfg.cluster_quant.value}, "
            f"predict_quant={cfg.predict_quant.value})"
        )
