"""Configuration for RegHD models.

One frozen dataclass gathers every hyper-parameter the paper exposes, with
the paper's defaults: D = 4000 (Sec. 4.4 uses 4k as full dimensionality),
k models, learning rate α, softmax confidence temperature, and the two
quantisation axes of Section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.core.quantization import ClusterQuant, PredictQuant
from repro.exceptions import ConfigurationError
from repro.registry import backend_class

#: spawn-key namespace for per-shard seed derivation, disjoint from the
#: small per-purpose keys models pass to ``derive_generator`` (0 encoder
#: bases, 1 epoch shuffling, ...), so shard streams can never collide
#: with a model's own derived streams.
_SHARD_SPAWN_KEY = 0x5348


def derive_shard_seed(base_seed: int | None, shard_id: int) -> int | None:
    """Deterministic per-shard child seed for distributed training.

    Every worker that needs shard-local randomness — building an
    encoder for an independent per-shard model, shuffling its local
    rows, generating shard-local synthetic data — derives its seed here
    instead of offsetting ``base_seed + shard_id`` (offset schemes
    collide across experiments that also increment seeds).  The
    derivation is a :class:`numpy.random.SeedSequence` spawn keyed on
    ``(namespace, shard_id)``: the same ``(base_seed, shard_id)`` pair
    always yields the same child seed, different shards yield
    statistically independent streams, and ``None`` (OS entropy)
    passes through unchanged.
    """
    if shard_id < 0:
        raise ConfigurationError(
            f"shard_id must be >= 0, got {shard_id}"
        )
    if base_seed is None:
        return None
    seq = np.random.SeedSequence(
        int(base_seed), spawn_key=(_SHARD_SPAWN_KEY, int(shard_id))
    )
    return int(seq.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class ConvergencePolicy:
    """Stopping rule for iterative retraining (paper Sec. 2.3/2.4).

    Training stops after ``max_epochs``, or earlier once the monitored MSE
    has improved by less than ``tol`` (relative) for ``patience``
    consecutive epochs — the paper's "minor changes on the model during a
    few consecutive iterations".
    """

    max_epochs: int = 30
    patience: int = 3
    tol: float = 1e-3
    min_epochs: int = 1

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ConfigurationError(
                f"max_epochs must be >= 1, got {self.max_epochs}"
            )
        if self.patience < 1:
            raise ConfigurationError(
                f"patience must be >= 1, got {self.patience}"
            )
        if self.tol < 0:
            raise ConfigurationError(f"tol must be >= 0, got {self.tol}")
        if not 1 <= self.min_epochs <= self.max_epochs:
            raise ConfigurationError(
                f"min_epochs must be in [1, max_epochs], got {self.min_epochs}"
            )


@dataclass(frozen=True)
class RegHDConfig:
    """Hyper-parameters for :class:`~repro.core.multi.MultiModelRegHD`.

    Parameters
    ----------
    dim:
        Hypervector dimensionality ``D``.
    n_models:
        Number of cluster/model hypervector pairs ``k`` (RegHD-k in the
        paper's tables).  ``n_models=1`` with ``cluster_quant=NONE``
        degenerates to single-model RegHD.
    lr:
        Learning rate ``α`` of the model update (Eq. 2 / Eq. 7).
    softmax_temp:
        Inverse temperature ``β`` applied to cluster similarities before
        the softmax normalisation block of Fig. 4.  Larger values sharpen
        cluster assignment; ``β → ∞`` is hard (argmax) assignment.
    update_weighting:
        How Eq. (7) distributes the error update across the k models:
        ``"confidence"`` (scale each model's update by its softmax
        confidence — the reading under which the models specialise),
        ``"argmax"`` (update only the most-confident model), or
        ``"uniform"`` (equation taken literally; kept for ablation — it
        collapses all models to the same vector).
    cluster_quant / predict_quant:
        The Section-3 quantisation schemes.
    batch_size:
        Mini-batch size for the vectorised training loop.  ``1`` is the
        paper's pure online update; larger batches apply the same updates
        with within-batch model staleness (and are dramatically faster in
        numpy).
    encoder_base / encoder_scale:
        Forwarded to :class:`~repro.encoding.nonlinear.NonlinearEncoder`.
    convergence:
        The iterative-retraining stopping rule.
    seed:
        Master seed; encoder bases, cluster initialisation and epoch
        shuffling derive independent streams from it.
    backend:
        Execution-runtime kernel backend name (``"dense"``/``"packed_v2"``,
        see :func:`repro.runtime.resolve_backend`).  ``None`` defers to
        the ``REPRO_BACKEND`` environment variable and then the dense
        default; a pinned name wins over the environment, so configs stay
        reproducible across machines.  Affects *how* kernels execute, not
        what they compute — it is serialised for provenance but a loaded
        model may run under a different backend.
    telemetry:
        Observability pin (see :mod:`repro.telemetry`).  ``True`` enables
        the process-wide metrics sink when the model is constructed,
        ``False`` disables it, and ``None`` (the default) leaves the sink
        as-is — governed by :func:`repro.telemetry.enable` and the
        ``REPRO_TELEMETRY`` environment variable.  Like ``backend`` it
        changes *measurement*, never results: predictions are
        bit-identical either way.
    """

    dim: int = 4000
    n_models: int = 8
    lr: float = 1.0
    softmax_temp: float = 20.0
    update_weighting: str = "confidence"
    cluster_quant: ClusterQuant = ClusterQuant.NONE
    predict_quant: PredictQuant = PredictQuant.FULL
    batch_size: int = 32
    encoder_base: str = "gaussian"
    encoder_scale: float | None = None
    convergence: ConvergencePolicy = field(default_factory=ConvergencePolicy)
    seed: int | None = 0
    backend: str | None = None
    telemetry: bool | None = None

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ConfigurationError(f"dim must be >= 2, got {self.dim}")
        if self.n_models < 1:
            raise ConfigurationError(
                f"n_models must be >= 1, got {self.n_models}"
            )
        if not self.lr > 0:
            raise ConfigurationError(f"lr must be > 0, got {self.lr}")
        if not self.softmax_temp > 0:
            raise ConfigurationError(
                f"softmax_temp must be > 0, got {self.softmax_temp}"
            )
        if self.update_weighting not in ("confidence", "argmax", "uniform"):
            raise ConfigurationError(
                "update_weighting must be 'confidence', 'argmax' or "
                f"'uniform', got {self.update_weighting!r}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if not isinstance(self.cluster_quant, ClusterQuant):
            raise ConfigurationError(
                f"cluster_quant must be a ClusterQuant, got "
                f"{self.cluster_quant!r}"
            )
        if not isinstance(self.predict_quant, PredictQuant):
            raise ConfigurationError(
                f"predict_quant must be a PredictQuant, got "
                f"{self.predict_quant!r}"
            )
        if self.backend is not None:
            if not isinstance(self.backend, str):
                raise ConfigurationError(
                    f"backend must be a registry name or None, got "
                    f"{self.backend!r}"
                )
            try:
                backend_class(self.backend)
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"{exc} (from RegHDConfig.backend)"
                ) from None
        if self.telemetry is not None and not isinstance(
            self.telemetry, bool
        ):
            raise ConfigurationError(
                f"telemetry must be True, False or None, got "
                f"{self.telemetry!r}"
            )

    def with_overrides(self, **changes: Any) -> "RegHDConfig":
        """Return a copy with the given fields replaced (frozen-safe)."""
        return replace(self, **changes)

    def to_meta(self) -> dict:
        """JSON-serialisable dict for the state protocol / model files."""
        return {
            "dim": self.dim,
            "n_models": self.n_models,
            "lr": self.lr,
            "softmax_temp": self.softmax_temp,
            "update_weighting": self.update_weighting,
            "cluster_quant": self.cluster_quant.value,
            "predict_quant": self.predict_quant.value,
            "batch_size": self.batch_size,
            "encoder_base": self.encoder_base,
            "encoder_scale": self.encoder_scale,
            "convergence": {
                "max_epochs": self.convergence.max_epochs,
                "patience": self.convergence.patience,
                "tol": self.convergence.tol,
                "min_epochs": self.convergence.min_epochs,
            },
            "seed": self.seed,
            "backend": self.backend,
            "telemetry": self.telemetry,
        }

    @classmethod
    def from_meta(cls, meta: dict) -> "RegHDConfig":
        """Rebuild a config from :meth:`to_meta` output.

        Tolerates the legacy v1 file format, which omitted
        ``encoder_base`` / ``encoder_scale`` / ``convergence`` (those
        fall back to their defaults — they only affect *training*, not
        the restored learned state).
        """
        convergence = ConvergencePolicy(**meta["convergence"]) if (
            "convergence" in meta
        ) else ConvergencePolicy()
        return cls(
            dim=int(meta["dim"]),
            n_models=int(meta["n_models"]),
            lr=float(meta["lr"]),
            softmax_temp=float(meta["softmax_temp"]),
            update_weighting=str(meta["update_weighting"]),
            cluster_quant=ClusterQuant(meta["cluster_quant"]),
            predict_quant=PredictQuant(meta["predict_quant"]),
            batch_size=int(meta["batch_size"]),
            encoder_base=str(meta.get("encoder_base", "gaussian")),
            encoder_scale=(
                None
                if meta.get("encoder_scale") is None
                else float(meta["encoder_scale"])
            ),
            convergence=convergence,
            seed=None if meta.get("seed") is None else int(meta["seed"]),
            backend=(
                None if meta.get("backend") is None else str(meta["backend"])
            ),
            telemetry=(
                None
                if meta.get("telemetry") is None
                else bool(meta["telemetry"])
            ),
        )
