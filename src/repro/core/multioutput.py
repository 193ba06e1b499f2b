"""Multi-output RegHD: vector targets with one shared encoder.

Many IoT problems predict several quantities at once (multi-horizon
forecasts, multi-sensor calibration).  RegHD extends naturally: the
expensive part — encoding — depends only on the input, so one encoder is
shared and each output dimension gets its own cluster/model hypervector
pair set.  ``fit``, ``partial_fit`` and ``predict`` encode each set of
rows once and hand every head the same :class:`~repro.runtime.Query`, so
their cost is `encode once + outputs × (search + update)`, versus
`outputs ×` everything for naive per-output models.

As a composite estimator this class extends
:class:`~repro.core.estimator.BaseEstimator` directly: its state is the
shared encoder plus each head's learned state (heads are rebuilt from the
shared config, so their per-head metadata stays small).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import RegHDConfig
from repro.core.estimator import (
    BaseEstimator,
    encoder_from_state,
    encoder_state,
)
from repro.core.multi import MultiModelRegHD
from repro.encoding.base import Encoder
from repro.encoding.nonlinear import NonlinearEncoder
from repro.exceptions import ConfigurationError, NotFittedError
from repro.registry import register_model
from repro.telemetry.tracing import span
from repro.types import ArrayLike, FloatArray
from repro.utils.rng import derive_generator
from repro.utils.validation import (
    check_2d,
    check_matching_lengths,
    check_nonempty,
    check_optional_pair,
)


@register_model("multioutput")
class MultiOutputRegHD(BaseEstimator):
    """Vector-target RegHD with a shared encoder.

    Parameters
    ----------
    in_features:
        Number of raw input features.
    n_outputs:
        Target dimensionality.
    config:
        Shared :class:`RegHDConfig`; per-output heads derive their seeds
        from ``config.seed`` (the *encoder* uses ``config.seed`` itself,
        so all heads see identical encodings).
    encoder:
        Optional pre-built encoder shared by every head (must match
        ``in_features`` and ``config.dim``); by default a
        :class:`NonlinearEncoder` is created from ``config.seed``.
    """

    def __init__(
        self,
        in_features: int,
        n_outputs: int,
        config: RegHDConfig | None = None,
        *,
        encoder: Encoder | None = None,
    ):
        if n_outputs < 1:
            raise ConfigurationError(
                f"n_outputs must be >= 1, got {n_outputs}"
            )
        base = config or RegHDConfig()
        if base.seed is None:
            raise ConfigurationError(
                "MultiOutputRegHD requires an integer config.seed"
            )
        self.config = base
        self.n_outputs = int(n_outputs)
        if encoder is not None:
            if encoder.in_features != in_features:
                raise ConfigurationError(
                    f"encoder expects {encoder.in_features} features, model "
                    f"was given in_features={in_features}"
                )
            if encoder.dim != base.dim:
                raise ConfigurationError(
                    f"encoder dim {encoder.dim} != config dim {base.dim}"
                )
            self._encoder = encoder
        else:
            # One encoder, shared by every head (same construction as
            # MultiModelRegHD's default so single-output behaviour matches).
            self._encoder = NonlinearEncoder(
                in_features,
                base.dim,
                derive_generator(base.seed, 0),
                base=base.encoder_base,
                scale=base.encoder_scale,
            )
        self.heads = [
            MultiModelRegHD(
                in_features,
                base.with_overrides(seed=base.seed + output),
                encoder=self._encoder,
            )
            for output in range(n_outputs)
        ]
        self._fitted = False

    @property
    def in_features(self) -> int:
        """Number of raw input features."""
        return self._encoder.in_features

    @property
    def encoder(self) -> Encoder:
        """The shared encoder."""
        return self._encoder

    def _validate_targets(self, X: FloatArray, Y: ArrayLike) -> FloatArray:
        Y_arr = np.asarray(Y, dtype=np.float64)
        if Y_arr.ndim == 1:
            Y_arr = Y_arr[:, np.newaxis]
        if Y_arr.ndim != 2 or Y_arr.shape[1] != self.n_outputs:
            raise ConfigurationError(
                f"Y must have shape (n, {self.n_outputs}), got {Y_arr.shape}"
            )
        check_matching_lengths("X", X, "Y", Y_arr)
        return Y_arr

    def fit(
        self,
        X: ArrayLike,
        Y: ArrayLike,
        *,
        X_val: ArrayLike | None = None,
        Y_val: ArrayLike | None = None,
    ) -> "MultiOutputRegHD":
        """Train every output head on one shared encoding of the training
        (and validation) rows, each with its own targets.  ``X_val`` and
        ``Y_val`` come together, as in
        :meth:`~repro.core.estimator.BaseRegHDEstimator.fit`."""
        has_val = check_optional_pair("X_val", X_val, "Y_val", Y_val)
        X_arr = check_2d("X", X)
        Y_arr = self._validate_targets(X_arr, Y)
        encode = self.heads[0]._encode_query
        query = encode(X_arr)
        val = None
        if has_val:
            X_val_arr = check_2d("X_val", X_val)
            Y_val_arr = self._validate_targets(X_val_arr, Y_val)
            val = (encode(X_val_arr), Y_val_arr)
        for output, head in enumerate(self.heads):
            head._fit_query(
                query,
                Y_arr[:, output],
                None if val is None else (val[0], val[1][:, output]),
            )
        self._fitted = True
        return self

    def partial_fit(self, X: ArrayLike, Y: ArrayLike) -> "MultiOutputRegHD":
        """One online pass for every head over one shared encoding; zero
        rows raise :class:`~repro.exceptions.DimensionalityError` before
        any head changes."""
        X_arr = check_2d("X", X)
        Y_arr = self._validate_targets(X_arr, Y)
        check_nonempty("X", X_arr)
        query = self.heads[0]._encode_query(X_arr)
        for output, head in enumerate(self.heads):
            head.partial_fit(X_arr, Y_arr[:, output], encoded=query)
        self._fitted = True
        return self

    def predict(self, X: ArrayLike) -> FloatArray:
        """Predict all outputs: shape ``(n, n_outputs)``."""
        if not self._fitted:
            raise NotFittedError("MultiOutputRegHD.predict called before fit")
        with span("encode"):
            query = self.heads[0]._encode_query(check_2d("X", X))
        with span("search"):
            return np.column_stack(
                [head._predict_query(query) for head in self.heads]
            )

    # -- state protocol -----------------------------------------------------

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        enc_meta, arrays = encoder_state(self._encoder)
        heads_meta = []
        for index, head in enumerate(self.heads):
            # Heads share config (modulo seed offset) and encoder, so only
            # their learned state is stored.  The ``head{i}__`` delimiter
            # is prefix-collision-free: the character after the index is
            # never a digit.
            heads_meta.append(
                {"scaler": head.scaler.get_state(), "fitted": head.fitted}
            )
            for name, value in head._model_arrays().items():
                arrays[f"head{index}__{name}"] = value
        meta = {
            "in_features": self.in_features,
            "n_outputs": self.n_outputs,
            "config": self.config.to_meta(),
            "encoder": enc_meta,
            "heads": heads_meta,
        }
        return meta, arrays

    def _apply_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        heads_meta = meta["heads"]
        if len(heads_meta) != self.n_outputs:
            raise ConfigurationError(
                f"state has {len(heads_meta)} heads, model has "
                f"{self.n_outputs} outputs"
            )
        for index, (head, head_meta) in enumerate(
            zip(self.heads, heads_meta)
        ):
            head.set_state(
                {"scaler": head_meta["scaler"], "fitted": head_meta["fitted"]},
                {
                    "clusters_integer": arrays[f"head{index}__clusters_integer"],
                    "models_integer": arrays[f"head{index}__models_integer"],
                },
            )

    @classmethod
    def _construct_from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "MultiOutputRegHD":
        return cls(
            int(meta["in_features"]),
            int(meta["n_outputs"]),
            RegHDConfig.from_meta(meta["config"]),
            encoder=encoder_from_state(meta["encoder"], arrays),
        )

    def __repr__(self) -> str:
        return (
            f"MultiOutputRegHD(in_features={self.in_features}, "
            f"n_outputs={self.n_outputs}, dim={self.config.dim}, "
            f"k={self.config.n_models})"
        )
