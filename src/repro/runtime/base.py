"""The kernel-backend protocol and backend resolution.

A :class:`KernelBackend` is the single dispatch point for every piece of
RegHD arithmetic: cluster similarities, softmax confidences, model dot
products, and the scatter-style updates.  The base class *is* the dense
reference implementation — :class:`~repro.runtime.DenseBackend` inherits
it unchanged, and :class:`~repro.runtime.PackedBackend` (the base of the
``"packed_v2"`` backend) overrides exactly the kernels where a
bit-packed representation applies.

Backends are stateless singletons resolved through the shared registry
(:data:`repro.registry.BACKEND_REGISTRY`) by :func:`resolve_backend`,
with the priority ``explicit argument > RegHDConfig.backend >
REPRO_BACKEND environment variable > default`` — so a config that pins a
backend is reproducible regardless of the environment, while the env var
flips the default fleet-wide (the CI packed leg runs the whole suite
under ``REPRO_BACKEND=packed_v2``).
"""

from __future__ import annotations

import os

import numpy as np

from repro.exceptions import ConfigurationError
from repro.runtime.quantization import ClusterQuant, PredictQuant
from repro.registry import backend_class
from repro.runtime import kernels
from repro.telemetry import metrics as _metrics
from repro.runtime.operands import ClusterOperand, FrozenClusterOperand
from repro.runtime.query import Query
from repro.types import FloatArray

#: environment variable consulted when no backend is pinned explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: the reference backend: exact float arithmetic, bit-identical goldens.
DEFAULT_BACKEND = "dense"

#: bumped when kernel semantics change; stamped on the telemetry export.
#: 2.0: cache-blocked pairwise popcount kernels + the PackedV2 fused
#: encode→pack serving pipeline.
RUNTIME_VERSION = "2.0"


class KernelBackend:
    """Dispatchable kernel surface; the base implementation is the dense path.

    Subclasses override individual kernels to exploit a representation
    (and the ``packs_*`` capability probes so callers can build the right
    operands); everything they do not override falls back to the exact
    reference arithmetic below.
    """

    #: registry name; set by :func:`repro.registry.register_backend`.
    state_name = "abstract"
    _instance: "KernelBackend | None" = None

    @classmethod
    def instance(cls) -> "KernelBackend":
        """The shared stateless singleton of this backend class."""
        if cls._instance is None or type(cls._instance) is not cls:
            cls._instance = cls()
        return cls._instance

    @property
    def name(self) -> str:
        """The registry name this backend resolves under."""
        return self.state_name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

    # -- capability probes -------------------------------------------------

    def packs_similarities(self, cluster_quant: ClusterQuant) -> bool:
        """Whether the cluster search runs on packed words for this quant."""
        return False

    def packs_dots(self, predict_quant: PredictQuant) -> bool:
        """Whether the model dots run on packed words for this quant."""
        return False

    def fuses_encode(
        self, cluster_quant: ClusterQuant, predict_quant: PredictQuant
    ) -> bool:
        """Whether compiled serving may fuse encode→pack for this quant
        pair (raw rows straight to packed words, no float tile).  Only
        backends that also implement ``encode_pack`` return True."""
        return False

    def reads_signs(
        self, cluster_quant: ClusterQuant, predict_quant: PredictQuant
    ) -> bool:
        """Whether a kernel reads the queries' float ±1 sign rows for this
        quant pair: a sign search or binarised-query dots that do not
        run on packed words."""
        return (
            cluster_quant is not ClusterQuant.NONE
            and not self.packs_similarities(cluster_quant)
        ) or (
            predict_quant.query_is_binary and not self.packs_dots(predict_quant)
        )

    # -- forward kernels (Eqs. 5-6, Fig. 4) --------------------------------

    def cluster_similarities(
        self, query: Query, clusters: ClusterOperand | FrozenClusterOperand
    ) -> FloatArray:
        """Similarity of each query to each cluster hypervector (Eq. 5).

        A sign search reads the query's sign rows when the caller built
        them, and otherwise derives them one row tile at a time.
        """
        if clusters.quant is ClusterQuant.NONE:
            return kernels.cosine_similarities(
                query.S, clusters.matT, clusters.norms
            )
        if query.signs is not None:
            return kernels.sign_similarities(
                query.signs, clusters.signsT, clusters.dim
            )
        return kernels.row_tiled_sign_similarities(
            query.S, clusters.signsT, clusters.dim
        )

    def confidences(self, sims: FloatArray, softmax_temp: float) -> FloatArray:
        """Softmax confidences over cluster similarities (Fig. 4)."""
        return kernels.confidences(sims, softmax_temp)

    def model_dots(self, query, models) -> FloatArray:
        """Per-model dot products with the Sec.-3.2 operand choice (Eq. 6).

        Binarised queries are one whole-batch dot (a row-tiled float dot
        would move bits): on the caller's binarised rows, or on transient
        ones (see :meth:`~repro.runtime.Query.binarized_rows`).
        """
        if models.quant.query_is_binary:
            return kernels.dense_dots(query.binarized_rows(), models.matT)
        return kernels.dense_dots(query.S, models.matT)

    def weighted_prediction(
        self, conf: FloatArray, dots: FloatArray
    ) -> FloatArray:
        """Confidence-weighted combination of per-model responses (Eq. 6)."""
        return np.add.reduce(conf * dots, axis=1)

    def linear_dots(self, S: FloatArray, weights: FloatArray) -> FloatArray:
        """Dots against a single model vector or stacked class vectors."""
        return kernels.linear_dots(S, weights)

    # -- update kernels (Eqs. 7-8) -----------------------------------------

    def lms_step(
        self, errors: FloatArray, S: FloatArray, lr: float
    ) -> FloatArray:
        """The Eq.-4 LMS update term, returned rather than applied.

        The caller lands it through a mergeable-delta sink
        (:meth:`repro.core.estimator.BaseRegHDEstimator._push_update`),
        which applies it and records it for shard merging.
        """
        return lr * (errors @ S) / len(S)

    def weighted_model_step(
        self, weights: FloatArray, S: FloatArray, lr: float
    ) -> FloatArray:
        """The Eq.-7 batched update term, returned rather than applied.

        The caller lands it on the model dual copy through a
        mergeable-delta sink, as for :meth:`lms_step`.
        """
        return lr * (weights.T @ S) / S.shape[0]

    def segment_delta(
        self, indices: np.ndarray, rows: FloatArray, k: int
    ) -> FloatArray:
        """Scatter rows into ``k`` accumulator rows (the Eq.-8 cluster pull)."""
        return kernels.segment_sum(indices, rows, k)

    def scatter_add(
        self, target: FloatArray, indices: np.ndarray, rows: FloatArray
    ) -> None:
        """Unbuffered in-place scatter-add (classification-style updates)."""
        kernels.scatter_add(target, indices, rows)


def resolve_backend(
    choice: "KernelBackend | str | None" = None,
    *,
    default: str = DEFAULT_BACKEND,
) -> KernelBackend:
    """Resolve a backend instance: explicit choice > env var > default.

    ``choice`` may be a backend instance (passed through), a registry
    name, or None — in which case the ``REPRO_BACKEND`` environment
    variable is consulted before falling back to ``default``.

    An unknown name raises :class:`~repro.exceptions.ConfigurationError`
    (a ``ValueError``) that lists the registered backend names and says
    where the bad name came from — an explicit argument / config pin or
    the environment variable.

    When telemetry is enabled (:mod:`repro.telemetry`) the resolved
    singleton is wrapped in an
    :class:`~repro.runtime.instrumented.InstrumentedBackend` counting
    kernel calls and bytes moved; with telemetry off the bare backend is
    returned and no per-call checks exist anywhere on the kernel path.
    """
    if isinstance(choice, KernelBackend):
        return choice
    source = "explicit backend choice"
    if choice is None:
        env = os.environ.get(BACKEND_ENV_VAR)
        if env:
            choice, source = env, f"{BACKEND_ENV_VAR} environment variable"
        else:
            choice, source = default, "default"
    try:
        cls = backend_class(str(choice))
    except ConfigurationError as exc:
        raise ConfigurationError(f"{exc} (from {source})") from None
    instance = cls.instance()
    if _metrics.enabled():
        from repro.runtime.instrumented import InstrumentedBackend

        return InstrumentedBackend(instance)
    return instance
