"""Seed ensembles of RegHD models.

A standard HDC accuracy lever the paper leaves on the table: because every
RegHD model is cheap and fully determined by its seed, averaging a few
independently-seeded models cancels encoder noise (the random-projection
variance) at linear cost.  The ensemble exposes the same
``fit``/``predict`` interface as a single model, plus per-member access
and an uncertainty estimate from the member spread.

As a composite estimator this class extends
:class:`~repro.core.estimator.BaseEstimator` directly.  Member encoders
are fully determined by ``config.seed + i`` (an integer seed is
enforced), so the serialised state carries only each member's learned
arrays — the encoders are regenerated bit-exactly on restore.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import RegHDConfig
from repro.core.estimator import BaseEstimator
from repro.core.multi import MultiModelRegHD
from repro.exceptions import ConfigurationError, NotFittedError
from repro.registry import register_model
from repro.types import ArrayLike, FloatArray
from repro.utils.validation import check_2d, check_optional_pair


@register_model("ensemble")
class RegHDEnsemble(BaseEstimator):
    """Average of ``n_members`` independently-seeded :class:`MultiModelRegHD`.

    Parameters
    ----------
    in_features:
        Number of raw input features.
    config:
        Shared configuration; member ``i`` trains with seed
        ``config.seed + i`` (members differ in encoder bases, cluster
        initialisation and shuffling).
    n_members:
        Ensemble size.
    """

    def __init__(
        self,
        in_features: int,
        config: RegHDConfig | None = None,
        *,
        n_members: int = 5,
    ):
        if n_members < 1:
            raise ConfigurationError(
                f"n_members must be >= 1, got {n_members}"
            )
        base = config or RegHDConfig()
        if base.seed is None:
            raise ConfigurationError(
                "RegHDEnsemble requires an integer config.seed to derive "
                "member seeds"
            )
        self.config = base
        self.members = [
            MultiModelRegHD(
                in_features, base.with_overrides(seed=base.seed + i)
            )
            for i in range(n_members)
        ]
        self._fitted = False

    @property
    def n_members(self) -> int:
        """Ensemble size."""
        return len(self.members)

    @property
    def in_features(self) -> int:
        """Number of raw input features."""
        return self.members[0].in_features

    def fit(
        self,
        X: ArrayLike,
        y: ArrayLike,
        *,
        X_val: ArrayLike | None = None,
        y_val: ArrayLike | None = None,
    ) -> "RegHDEnsemble":
        """Train every member on the same data (different seeds).
        ``X_val`` and ``y_val`` come together, checked before any member
        trains."""
        check_optional_pair("X_val", X_val, "y_val", y_val)
        for member in self.members:
            member.fit(X, y, X_val=X_val, y_val=y_val)
        self._fitted = True
        return self

    def _member_predictions(self, X: ArrayLike) -> FloatArray:
        if not self._fitted:
            raise NotFittedError("RegHDEnsemble.predict called before fit")
        X_arr = check_2d("X", X)
        return np.stack([m.predict(X_arr) for m in self.members])

    def predict(self, X: ArrayLike) -> FloatArray:
        """Mean of the member predictions."""
        return self._member_predictions(X).mean(axis=0)

    def predict_with_uncertainty(
        self, X: ArrayLike
    ) -> tuple[FloatArray, FloatArray]:
        """Mean and member standard deviation per query.

        The spread measures sensitivity to the encoder's random bases —
        an (uncalibrated) stability signal.  Note that *far* out of
        distribution every member's prediction regresses to the training
        mean (encodings become near-orthogonal to every model
        hypervector, so the dot products vanish), which shrinks the
        spread; the spread flags contentious in-distribution regions, not
        OOD distance.
        """
        preds = self._member_predictions(X)
        return preds.mean(axis=0), preds.std(axis=0)

    # -- state protocol -----------------------------------------------------

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        members_meta = []
        arrays: dict[str, np.ndarray] = {}
        for index, member in enumerate(self.members):
            # The ``member{i}__`` delimiter is prefix-collision-free: the
            # character after the index is never a digit.
            members_meta.append(
                {
                    "scaler": member.scaler.get_state(),
                    "fitted": member.fitted,
                }
            )
            for name, value in member._model_arrays().items():
                arrays[f"member{index}__{name}"] = value
        meta = {
            "in_features": self.in_features,
            "n_members": self.n_members,
            "config": self.config.to_meta(),
            "members": members_meta,
        }
        return meta, arrays

    def _apply_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        members_meta = meta["members"]
        if len(members_meta) != self.n_members:
            raise ConfigurationError(
                f"state has {len(members_meta)} members, ensemble has "
                f"{self.n_members}"
            )
        for index, (member, member_meta) in enumerate(
            zip(self.members, members_meta)
        ):
            member.set_state(
                {
                    "scaler": member_meta["scaler"],
                    "fitted": member_meta["fitted"],
                },
                {
                    "clusters_integer": arrays[
                        f"member{index}__clusters_integer"
                    ],
                    "models_integer": arrays[f"member{index}__models_integer"],
                },
            )

    @classmethod
    def _construct_from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "RegHDEnsemble":
        return cls(
            int(meta["in_features"]),
            RegHDConfig.from_meta(meta["config"]),
            n_members=int(meta["n_members"]),
        )

    def __repr__(self) -> str:
        return (
            f"RegHDEnsemble(n_members={self.n_members}, "
            f"in_features={self.in_features}, dim={self.config.dim}, "
            f"k={self.config.n_models})"
        )
