"""Shared estimator runtime: the base every RegHD model sits on.

The paper's pipeline — encode, L2-normalise, standardise targets, train,
re-binarise — used to be re-implemented per model class.  This module
owns it once:

* :class:`TargetScaler` — the y-standardisation state machine shared by
  every regressor: full re-fit in :meth:`~TargetScaler.fit`,
  freeze-on-first-batch for streaming ``partial_fit``
  (:meth:`~TargetScaler.freeze_once`), ``transform``/``inverse`` between
  target units and the unit-scale space the hypervector arithmetic uses,
  and a JSON-serialisable ``get_state``/``set_state`` pair;
* :class:`BaseEstimator` — fitted-state plus the *state protocol*:
  ``get_state() -> (meta, arrays)`` / ``set_state`` (in-place) /
  ``from_state`` (constructing), the contract every persistence layer
  (:mod:`repro.serialization`, :mod:`repro.reliability.checkpoint`,
  :mod:`repro.engine.plan`) consumes through the registries in
  :mod:`repro.registry`;
* :class:`BaseRegHDEstimator` — the encoder-bearing template owning
  input validation, encode + row-normalise, target scaling, and the
  ``fit`` / ``partial_fit`` / ``predict`` skeleton; concrete models only
  provide the trainer-protocol hooks (``fit_epoch`` /
  ``predict_encoded`` / ``end_epoch``) and their learned-state arrays.

Composite estimators (:class:`~repro.core.multioutput.MultiOutputRegHD`,
:class:`~repro.core.ensemble.RegHDEnsemble`) extend
:class:`BaseEstimator` directly and compose their children's states.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.delta import (
    DeltaRecorder,
    ModelDelta,
    TargetMoments,
    merge_deltas,
    merge_moments,
)
from repro.core.trainer import IterativeTrainer, TrainingHistory
from repro.encoding.base import Encoder
from repro.exceptions import ConfigurationError, NotFittedError
from repro.ops.normalize import normalize_rows
from repro.registry import encoder_class, encoder_type_of
from repro.runtime.query import Query
from repro.telemetry.tracing import span
from repro.types import ArrayLike, FloatArray
from repro.utils.validation import (
    check_1d,
    check_2d,
    check_matching_lengths,
    check_nonempty,
    check_optional_pair,
)

StateMeta = dict
StateArrays = "dict[str, np.ndarray]"

#: npz key prefix under which an owned encoder's arrays are stored
ENCODER_PREFIX = "encoder_"


class TargetScaler:
    """Standardisation of regression targets, with freeze semantics.

    ``fit`` estimates mean and scale from a full training set (scale
    falls back to 1 for constant targets).  ``freeze_once`` is the
    streaming variant: the first call estimates from the first batch and
    every later call is a no-op, so online updates keep a stable target
    space.  ``transform``/``inverse`` map between original target units
    and the standardised space the hypervector arithmetic works in.

    Alongside the affine parameters the scaler keeps the *exact* moments
    it was estimated from (``count``, ``m2`` — the sum of squared
    deviations), so two scalers frozen on different data shards merge to
    the exact pooled statistics via Chan's parallel algorithm
    (:meth:`merge`) instead of an ad-hoc average.  A zero-count operand
    is the merge identity, so empty shards never perturb the result.
    """

    def __init__(self) -> None:
        self.mean = 0.0
        self.scale = 1.0
        self.fitted = False
        self.count = 0
        self.m2 = 0.0

    def fit(self, y: FloatArray) -> "TargetScaler":
        """Estimate mean/scale from ``y`` (unconditionally)."""
        self.mean = float(np.mean(y))
        scale = float(np.std(y))
        self.scale = scale if scale > 0 else 1.0
        self.fitted = True
        arr = np.asarray(y, dtype=np.float64).ravel()
        self.count = int(arr.size)
        self.m2 = float(np.sum((arr - self.mean) ** 2))
        return self

    @property
    def moments(self) -> TargetMoments:
        """The exact moments this scaler was estimated from."""
        return TargetMoments(count=self.count, mean=self.mean, m2=self.m2)

    def adopt_moments(self, moments: TargetMoments) -> "TargetScaler":
        """Freeze this scaler from externally pooled moments.

        Used when a coordinator derives the target statistics from
        merged shard deltas rather than a local batch; the constant-
        target fallback (scale 1) matches :meth:`fit`.
        """
        self.mean = float(moments.mean)
        std = moments.std
        self.scale = std if std > 0 else 1.0
        self.count = int(moments.count)
        self.m2 = float(moments.m2)
        self.fitted = True
        return self

    @classmethod
    def merge(cls, scalers: Sequence["TargetScaler"]) -> "TargetScaler":
        """Exact weighted merge of fitted scalers (Chan's algorithm).

        The result is frozen on the pooled moments of every input —
        merging two scalers frozen on disjoint shards equals (to float
        rounding) a single scaler fitted on the concatenated targets,
        for any count split.  Zero-count scalers (including legacy state
        restored from files that predate moment tracking) are merge
        identities: they contribute nothing, and merging against one
        returns the other's moments bit-exactly.
        """
        pooled = merge_moments(s.moments for s in scalers)
        if pooled.count == 0:
            return cls()  # nothing to estimate from: identity mapping
        return cls().adopt_moments(pooled)

    def freeze_once(self, y: FloatArray) -> None:
        """Estimate from the first batch only; later calls change nothing."""
        if not self.fitted:
            self.fit(y)

    def transform(self, y: FloatArray) -> FloatArray:
        """Map targets into the standardised space."""
        return (np.asarray(y, dtype=np.float64) - self.mean) / self.scale

    def inverse(self, y: FloatArray) -> FloatArray:
        """Map standardised predictions back to original target units."""
        return np.asarray(y, dtype=np.float64) * self.scale + self.mean

    def reset(self) -> None:
        """Forget the fitted statistics (identity mapping again)."""
        self.mean = 0.0
        self.scale = 1.0
        self.fitted = False
        self.count = 0
        self.m2 = 0.0

    def get_state(self) -> dict:
        """JSON-serialisable snapshot."""
        return {
            "mean": self.mean,
            "scale": self.scale,
            "fitted": self.fitted,
            "count": self.count,
            "m2": self.m2,
        }

    def set_state(self, state: dict) -> None:
        """Restore a :meth:`get_state` snapshot.

        Snapshots written before moment tracking carry no
        ``count``/``m2``; they restore with zero count, which the merge
        algebra treats as an identity operand.
        """
        self.mean = float(state["mean"])
        self.scale = float(state["scale"])
        self.fitted = bool(state["fitted"])
        self.count = int(state.get("count", 0))
        self.m2 = float(state.get("m2", 0.0))

    def __repr__(self) -> str:
        return (
            f"TargetScaler(mean={self.mean:.4g}, scale={self.scale:.4g}, "
            f"fitted={self.fitted})"
        )


# -- encoder state helpers ----------------------------------------------------


def encoder_state(encoder: Encoder) -> tuple[dict, dict[str, np.ndarray]]:
    """Encoder state in the namespaced form models embed in their own.

    The returned meta carries the registry ``type`` name; array keys are
    prefixed with ``encoder_`` so they can share a flat npz namespace
    with the model's learned arrays.
    """
    name = encoder_type_of(encoder)
    meta, arrays = encoder.get_state()
    meta = dict(meta)
    meta["type"] = name
    return meta, {f"{ENCODER_PREFIX}{key}": value for key, value in arrays.items()}


def encoder_from_state(
    meta: dict, arrays: dict[str, np.ndarray]
) -> Encoder:
    """Rebuild an encoder from its namespaced state via the registry."""
    cls = encoder_class(meta["type"])
    plain = {
        key[len(ENCODER_PREFIX) :]: value
        for key, value in arrays.items()
        if key.startswith(ENCODER_PREFIX)
    }
    return cls.from_state(meta, plain)


def take_array(
    arrays: dict[str, np.ndarray],
    name: str,
    shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Fetch ``arrays[name]`` as float64, optionally validating its shape."""
    try:
        arr = np.asarray(arrays[name], dtype=np.float64)
    except KeyError:
        raise ConfigurationError(
            f"model state is missing array {name!r}"
        ) from None
    if shape is not None and tuple(arr.shape) != tuple(shape):
        raise ConfigurationError(
            f"state array {name!r} has shape {tuple(arr.shape)}, "
            f"expected {tuple(shape)}"
        )
    return arr


# -- the estimator bases ------------------------------------------------------


class BaseEstimator:
    """Fitted-state plus the state protocol shared by every estimator.

    Sub-classes implement three hooks:

    * ``_state() -> (meta, arrays)`` — everything needed to rebuild the
      estimator: JSON-serialisable meta plus a flat dict of numpy
      arrays;
    * ``_apply_state(meta, arrays)`` — copy a state *into* this
      (compatible) instance, in place, without replacing owned arrays
      (so external references — scrubber shadows, serving plans holding
      the model — stay valid where possible);
    * ``_construct_from_state(meta, arrays)`` (classmethod) — build an
      unfitted instance matching the state's configuration.

    The public protocol wraps them: :meth:`get_state`,
    :meth:`set_state`, :meth:`from_state`.
    """

    #: registry name, set by :func:`repro.registry.register_model`
    state_name: str

    _fitted: bool = False

    @property
    def fitted(self) -> bool:
        """Whether the estimator has absorbed any training data."""
        return self._fitted

    def _require_fitted(self, operation: str) -> None:
        if not self._fitted:
            raise NotFittedError(f"{operation} called before fit")

    # -- state protocol ----------------------------------------------------

    def get_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Full state as ``(meta, arrays)``.

        ``meta`` is JSON-serialisable; ``arrays`` is a flat name→ndarray
        dict.  Together they reconstruct the estimator bit-exactly via
        :meth:`from_state`.
        """
        meta, arrays = self._state()
        meta["fitted"] = self._fitted
        return meta, arrays

    def set_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Apply a :meth:`get_state` snapshot to this instance, in place."""
        self._apply_state(meta, arrays)
        self._fitted = bool(meta.get("fitted", True))

    @classmethod
    def from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "BaseEstimator":
        """Construct a new instance from a :meth:`get_state` snapshot."""
        instance = cls._construct_from_state(meta, arrays)
        instance.set_state(meta, arrays)
        return instance

    # -- hooks -------------------------------------------------------------

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        raise NotImplementedError

    def _apply_state(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        raise NotImplementedError

    @classmethod
    def _construct_from_state(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "BaseEstimator":
        raise NotImplementedError


class BaseRegHDEstimator(BaseEstimator):
    """Template for encoder-bearing RegHD estimators.

    Owns the per-model copies of the paper's shared pipeline: input
    validation, encode + L2-normalise, target standardisation
    (:class:`TargetScaler`), fitted-state, and the skeletons of
    ``fit`` / ``partial_fit`` / ``predict``.  Concrete models provide
    the trainer-protocol methods (``fit_epoch`` / ``predict_encoded`` /
    ``end_epoch``) plus a handful of small hooks.
    """

    #: models that cannot learn online override this to False
    supports_partial_fit = True

    def __init__(self, encoder: Encoder):
        self.encoder = encoder
        self.scaler = TargetScaler()
        self.history_: TrainingHistory | None = None
        self._fitted = False
        self._delta_rec: DeltaRecorder | None = None

    @staticmethod
    def resolve_encoder(
        in_features: int, encoder: Encoder | None, build
    ) -> Encoder:
        """Validate a user-supplied encoder or build the default one."""
        if encoder is not None:
            if encoder.in_features != in_features:
                raise ConfigurationError(
                    f"encoder expects {encoder.in_features} features, model "
                    f"was given in_features={in_features}"
                )
            return encoder
        return build()

    @property
    def dim(self) -> int:
        """Hypervector dimensionality ``D``."""
        return self.encoder.dim

    @property
    def in_features(self) -> int:
        """Number of raw input features."""
        return self.encoder.in_features

    # -- pipeline pieces ---------------------------------------------------

    def _encode_normalized(self, X: ArrayLike) -> FloatArray:
        """Encode raw rows and L2-normalise each hypervector, in place in
        the encoder's fresh output: the batch costs one float matrix."""
        S = self.encoder.encode_batch(X)
        if S.dtype != np.float64 or not S.flags.writeable:
            S = np.array(S, dtype=np.float64)  # an encoder off the contract
        return normalize_rows(S, out=S)

    def _encode_query(self, X: FloatArray) -> Query:
        """Encode + L2-normalise validated rows into one :class:`Query`.

        The query caches the packed words and scales of its rows, so one
        encoded batch can serve a prediction and the update that follows
        it.
        """
        return Query(self._encode_normalized(X))

    # -- per-model hooks ---------------------------------------------------

    def _convergence_policy(self):
        """The :class:`ConvergencePolicy` driving iterative retraining."""
        raise NotImplementedError

    def _fit_shuffle_rng(self):
        """Fresh epoch-shuffling generator (re-derived per fit call)."""
        raise NotImplementedError

    def _reset_learned_state(self) -> None:
        """Zero / re-initialise the learned hypervectors before a fit."""
        raise NotImplementedError

    def _prepare_fit_targets(self, y: FloatArray) -> FloatArray:
        """Fit target statistics and return the training-space targets."""
        self.scaler.fit(y)
        return self.scaler.transform(y)

    def _transform_targets(self, y: FloatArray) -> FloatArray:
        """Map validation targets into the training-space."""
        return self.scaler.transform(y)

    def _finalize_predictions(self, y: FloatArray) -> FloatArray:
        """Map training-space predictions back to original target units."""
        return self.scaler.inverse(y)

    def _after_partial_fit(self) -> None:
        """Hook after each online pass (e.g. re-binarise dual copies)."""

    # -- mergeable updates: the ModelDelta protocol ------------------------
    #
    # Every hot-loop update flows through the _push_* sinks below: they
    # apply the update to the live learned state (bit-identical to the
    # historical in-place mutation) and, when a recording span is open,
    # fold the same update into a DeltaRecorder.  A captured ModelDelta
    # is the mergeable unit of shard-parallel training — see
    # repro.core.delta for the weighting algebra and repro.distributed
    # for the map-reduce trainer built on top.

    @property
    def recording_delta(self) -> bool:
        """Whether a :meth:`begin_delta` span is currently open."""
        return self._delta_rec is not None

    def begin_delta(self) -> None:
        """Open a recording span: subsequent training accumulates a delta.

        Training continues to mutate the live model exactly as before;
        the recorder additionally captures the sum of every update so
        :meth:`capture_delta` can snapshot the span.  Spans do not nest.
        """
        if self._delta_rec is not None:
            raise ConfigurationError(
                "begin_delta called while a recording span is already "
                "open — capture_delta first (spans do not nest)"
            )
        shapes, counted = self._delta_spec()
        self._delta_rec = DeltaRecorder(
            self.state_name, self._delta_fingerprint(), shapes, counted
        )

    def capture_delta(self) -> ModelDelta:
        """Close the recording span and return the accumulated delta."""
        if self._delta_rec is None:
            raise ConfigurationError(
                "capture_delta called without an open begin_delta span"
            )
        delta = self._delta_rec.finish()
        self._delta_rec = None
        # Re-stamp: a full fit() may have updated structural scalars the
        # fingerprint covers (e.g. BaselineHD bin edges) during the span.
        delta.fingerprint = self._delta_fingerprint()
        return delta

    def apply_delta(self, delta: ModelDelta) -> "BaseRegHDEstimator":
        """Fold a (possibly merged) delta into the live learned state.

        Refuses deltas from a different model type or structural
        fingerprint.  An unfitted target scaler adopts the delta's pooled
        target moments, so a coordinator that never saw raw targets
        still lands in the shards' shared target space; a fitted scaler
        is left untouched (its frozen space is what the shards trained
        in).
        """
        if self._delta_rec is not None:
            raise ConfigurationError(
                "apply_delta called during an open recording span"
            )
        if delta.model_type != self.state_name:
            raise ConfigurationError(
                f"delta was recorded by model type {delta.model_type!r}, "
                f"cannot apply to {self.state_name!r}"
            )
        fingerprint = self._delta_fingerprint()
        if delta.fingerprint != fingerprint:
            raise ConfigurationError(
                "delta fingerprint does not match this model "
                f"({delta.fingerprint} vs {fingerprint})"
            )
        if not self.scaler.fitted and delta.moments.count > 0:
            self.scaler.adopt_moments(delta.moments)
        for name, update in delta.arrays.items():
            self._apply_array_delta(name, update)
        self._fitted = True
        self._finish_apply_delta(delta)
        return self

    #: the counts-weighted ordered reduction (see repro.core.delta)
    merge_deltas = staticmethod(merge_deltas)

    # -- delta hooks (implemented by concrete models) ----------------------

    def _delta_spec(self) -> tuple[dict[str, tuple[int, ...]], tuple[str, ...]]:
        """``(array shapes, per-row-counted names)`` of the delta arrays.

        Covers exactly the learned arrays the update sinks touch (not
        auxiliary state like bin centres or encoder bases).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not define a delta spec"
        )

    def _delta_fingerprint(self) -> dict:
        """Structural identity validated on merge and apply."""
        shapes, counted = self._delta_spec()
        return {
            "in_features": self.in_features,
            "dim": self.dim,
            "arrays": {
                name: list(shape) for name, shape in sorted(shapes.items())
            },
            "counted": sorted(counted),
        }

    def _array_view(self, name: str) -> np.ndarray:
        """Current full-precision values of a learned delta array."""
        raise NotImplementedError

    def _apply_array_delta(self, name: str, update: FloatArray) -> None:
        """Add a dense update onto the live learned array."""
        raise NotImplementedError

    def _replace_array(self, name: str, values: FloatArray) -> None:
        """Overwrite the live learned array (replace-style updates)."""
        raise NotImplementedError

    def _finish_apply_delta(self, delta: ModelDelta) -> None:
        """Restore model invariants after :meth:`apply_delta` (default:
        none) — e.g. re-binarise dual copies."""

    # -- update sinks (called from the hot loops) --------------------------

    def _push_update(
        self,
        name: str,
        update: FloatArray,
        row_counts: np.ndarray | None = None,
    ) -> None:
        """Apply a dense additive update and record it when recording."""
        self._apply_array_delta(name, update)
        rec = self._delta_rec
        if rec is not None:
            rec.accumulate(name, update, row_counts)

    def _push_replace(
        self,
        name: str,
        values: FloatArray,
        row_counts: np.ndarray | None = None,
    ) -> None:
        """Overwrite a learned array, recording the effective diff.

        Replace-style updates (the NAIVE cluster re-binarisation) record
        ``new - old``; consecutive replaces telescope, so the captured
        delta moves a compatible base to the recorded end state.
        """
        rec = self._delta_rec
        if rec is not None:
            rec.accumulate(
                name,
                np.asarray(values, dtype=np.float64) - self._array_view(name),
                row_counts,
            )
        self._replace_array(name, values)

    def _push_scatter(
        self,
        name: str,
        indices: np.ndarray,
        rows: FloatArray,
        *,
        count: bool = True,
    ) -> None:
        """Scatter rows into a learned array and mirror into the recorder.

        Both the live target and the recorder's accumulator go through
        the backend's ``scatter_add`` kernel.  ``count=False`` suppresses
        the per-row sample counting for secondary scatters (e.g. the
        punish half of a classification update) so a sample is counted
        once per row it evidences.
        """
        self.runtime.scatter_add(self._array_view(name), indices, rows)
        rec = self._delta_rec
        if rec is not None:
            self.runtime.scatter_add(rec.arrays[name], indices, rows)
            if count:
                rec.count_rows(name, indices)

    def _record_targets(self, y: FloatArray) -> None:
        """Feed one absorbed batch's raw targets to the open recorder."""
        rec = self._delta_rec
        if rec is not None:
            rec.observe_targets(y)

    # -- the fit / partial_fit / predict skeleton --------------------------

    def fit(
        self,
        X: ArrayLike,
        y: ArrayLike,
        *,
        X_val: ArrayLike | None = None,
        y_val: ArrayLike | None = None,
    ):
        """Iteratively train on ``(X, y)`` until convergence.

        Validation data, if given, drives the convergence criterion;
        otherwise training MSE is monitored.  ``X_val`` and ``y_val``
        come together: one without the other raises
        :class:`~repro.exceptions.ConfigurationError`.
        """
        has_val = check_optional_pair("X_val", X_val, "y_val", y_val)
        X_arr = check_2d("X", X)
        y_arr = check_1d("y", y)
        check_matching_lengths("X", X_arr, "y", y_arr)
        query = self._encode_query(X_arr)
        val = None
        if has_val:
            X_val_arr = check_2d("X_val", X_val)
            y_val_arr = check_1d("y_val", y_val)
            check_matching_lengths("X_val", X_val_arr, "y_val", y_val_arr)
            val = (self._encode_query(X_val_arr), y_val_arr)
        return self._fit_query(query, y_arr, val)

    def _fit_query(
        self,
        query: Query,
        y: FloatArray,
        val: tuple[Query, FloatArray] | None = None,
    ):
        """The part of :meth:`fit` after encoding: train on ``query`` (the
        encoded rows of ``y``), monitoring the encoded ``val`` pair if
        given.  A composite estimator hands several models one query."""
        self._record_targets(y)
        y_train = self._prepare_fit_targets(y)
        S = self._encoded_operand(query)
        S_val = y_val_train = None
        if val is not None:
            S_val = self._encoded_operand(val[0])
            y_val_train = self._transform_targets(val[1])

        self._reset_learned_state()
        trainer = IterativeTrainer(
            self._convergence_policy(), self._fit_shuffle_rng()
        )
        self.history_ = trainer.train(self, S, y_train, S_val, y_val_train)
        self._fitted = True
        return self

    def partial_fit(
        self, X: ArrayLike, y: ArrayLike, *, encoded: Query | None = None
    ):
        """One online pass over ``(X, y)`` without resetting the model.

        Target scaling is frozen after the first call (estimated from the
        first batch), making this suitable for streaming workloads.  A
        batch of zero rows raises :class:`~repro.exceptions.DimensionalityError`
        before any state changes, as ``fit`` does: a scaler frozen on no
        targets would read NaN for the rest of the stream.

        ``encoded`` is an optional :class:`~repro.runtime.Query` over the
        already encoded and row-normalised ``X`` (shape ``(len(X), D)``),
        for example the one a prequential prediction was just computed
        from; the pass then trains on it instead of encoding ``X`` again.
        """
        if not self.supports_partial_fit:
            raise ConfigurationError(
                f"{type(self).__name__} does not support partial_fit"
            )
        X_arr = check_2d("X", X)
        y_arr = check_1d("y", y)
        check_matching_lengths("X", X_arr, "y", y_arr)
        check_nonempty("X", X_arr)
        if encoded is None:
            encoded = self._encode_query(X_arr)
        else:
            shape = None if encoded.S is None else encoded.S.shape
            if shape != (len(X_arr), self.dim):
                raise ConfigurationError(
                    f"encoded query has shape {shape}, expected "
                    f"{(len(X_arr), self.dim)} for this batch"
                )
        S = self._encoded_operand(encoded)
        self._record_targets(y_arr)
        self.scaler.freeze_once(y_arr)
        self._fitted = True
        y_train = self.scaler.transform(y_arr)
        self.fit_epoch(S, y_train, np.arange(len(y_train)))
        self._after_partial_fit()
        return self

    def predict(self, X: ArrayLike) -> FloatArray:
        """Predict targets (original units) for raw feature rows."""
        if not self._fitted:
            raise NotFittedError(
                f"{type(self).__name__}.predict called before fit"
            )
        with span("encode"):
            query = self._encode_query(check_2d("X", X))
        with span("search"):
            return self._predict_query(query)

    def _predict_query(self, query: Query) -> FloatArray:
        """Predict targets (original units) for an encoded query: the
        search half of :meth:`predict`."""
        return self._finalize_predictions(
            self.predict_encoded(self._encoded_operand(query))
        )

    def _encoded_operand(self, query: Query):
        """What the trainer-protocol methods take for an encoded batch,
        in ``fit``, ``partial_fit`` and ``predict`` alike: the plain
        matrix here; models whose kernels read the query's cached
        derivations take the query itself."""
        return query.S

    # -- trainer protocol (implemented by concrete models) -----------------

    def fit_epoch(
        self, S: FloatArray, y: FloatArray, order: np.ndarray
    ) -> None:
        """One pass of online/mini-batch updates over pre-encoded data."""
        raise NotImplementedError

    def predict_encoded(self, S: FloatArray) -> FloatArray:
        """Predict training-space targets for encoded hypervectors."""
        raise NotImplementedError

    def end_epoch(self) -> None:
        """Per-epoch post-processing (default: none)."""

    # -- state protocol plumbing -------------------------------------------

    def _state(self) -> tuple[dict, dict[str, np.ndarray]]:
        enc_meta, enc_arrays = encoder_state(self.encoder)
        meta = {"in_features": self.in_features, "encoder": enc_meta}
        meta.update(self._model_meta())
        arrays = dict(enc_arrays)
        arrays.update(self._model_arrays())
        return meta, arrays

    def _apply_state(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        self._apply_model_state(meta, arrays)

    def _model_meta(self) -> dict:
        """Model-specific JSON metadata (config + learned scalars)."""
        raise NotImplementedError

    def _model_arrays(self) -> dict[str, np.ndarray]:
        """Model-specific learned arrays."""
        raise NotImplementedError

    def _apply_model_state(
        self, meta: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        """Copy learned state into this instance (shape-validated)."""
        raise NotImplementedError
