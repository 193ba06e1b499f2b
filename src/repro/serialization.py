"""Save and load trained models — registry-driven, format v2.

Deployment on an embedded device means training on a workstation and
shipping the frozen hypervectors; these helpers serialise a trained
model — including the encoder's random bases, without which predictions
are meaningless — to a single ``.npz`` file and restore it bit-exactly.

The serializer knows nothing about concrete model classes.  Every
estimator implements the state protocol
(:meth:`~repro.core.estimator.BaseEstimator.get_state` /
:meth:`~repro.core.estimator.BaseEstimator.from_state`) and registers
itself in :data:`~repro.registry.MODEL_REGISTRY`; :func:`save_model`
writes ``(meta, arrays)`` plus integrity metadata, :func:`load_model`
validates and dispatches through the registry.  Any registered type —
including composites like ``MultiOutputRegHD`` and ``RegHDEnsemble`` —
round-trips with no serializer changes.

File format (v2): one ``.npz`` with a ``_meta`` JSON blob and the state
arrays flat at the top level.  ``_meta`` carries ``format_version``,
``model_type`` (registry name), per-array ``shapes``/``dtypes`` used to
validate the file against tampering/truncation, and the optional
``extra`` payload.  Format-v1 files (the pre-registry isinstance-ladder
era) are still readable: :func:`_upgrade_v1` rewrites their metadata
into the v2 state shape on load.  Delta, encoder and checkpoint files
share the container (:func:`npz_bytes` / :func:`read_npz`), marked by
a ``kind`` entry; a model file has none and is self-contained.
"""

from __future__ import annotations

import io
import json
import pathlib
import zipfile

import numpy as np

from repro.core.delta import ModelDelta, TargetMoments
from repro.exceptions import ConfigurationError
from repro.registry import model_class, model_type_of

_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

#: array-name prefix namespacing per-row counts inside a delta file
_ROWCOUNT_PREFIX = "rowcount_"


def _read_array(
    data: np.lib.npyio.NpzFile,
    name: str,
    path: pathlib.Path,
    shape: tuple[int, ...] | None = None,
    dtype: str | None = None,
) -> np.ndarray:
    """Pull one array out of an ``.npz``, validating against the metadata.

    Decoding can fail lazily (arrays are read from the zip on access), so
    truncation surfaces here as well as at :func:`np.load` time; every
    failure mode becomes a :class:`ConfigurationError` with the file name
    instead of a raw zipfile/numpy error.
    """
    try:
        arr = np.array(data[name])
    except KeyError:
        raise ConfigurationError(
            f"{path}: missing array {name!r} — truncated or not a model file"
        ) from None
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise ConfigurationError(
            f"{path}: array {name!r} could not be decoded "
            f"(corrupt or truncated file): {exc}"
        ) from exc
    if dtype is not None and str(arr.dtype) != dtype:
        raise ConfigurationError(
            f"{path}: array {name!r} has dtype {arr.dtype}, "
            f"metadata expects {dtype}"
        )
    if dtype is None and not np.issubdtype(arr.dtype, np.number):
        raise ConfigurationError(
            f"{path}: array {name!r} has non-numeric dtype {arr.dtype}"
        )
    if shape is not None and tuple(arr.shape) != tuple(shape):
        raise ConfigurationError(
            f"{path}: array {name!r} has shape {tuple(arr.shape)}, "
            f"metadata expects {tuple(shape)}"
        )
    return arr


def save_model(
    model: object,
    path: str | pathlib.Path,
    *,
    extra: dict | None = None,
) -> pathlib.Path:
    """Serialise a *trained* registered model to ``path`` (``.npz``).

    Raises :class:`ConfigurationError` for unfitted models — a frozen
    model without learned hypervectors cannot predict — and for model or
    encoder types that are not in the registries.

    ``extra`` is an optional JSON-serialisable dict stored alongside the
    model metadata; checkpointing uses it to persist wrapper state (batch
    counters, drift-detector internals) next to the model it belongs to.
    Retrieve it with :func:`read_metadata`.
    """
    path = pathlib.Path(path)
    # np.savez appends .npz when missing; name the file the same way.
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.write_bytes(model_bytes(model, extra=extra))
    return path


def model_bytes(model: object, *, extra: dict | None = None) -> bytes:
    """The ``.npz`` file :func:`save_model` writes, built in memory."""
    meta, arrays = model_state(model)
    if extra is not None:
        meta["extra"] = extra
    return npz_bytes(meta, arrays)


def model_state(model: object) -> tuple[dict, dict[str, np.ndarray]]:
    """A trained model's ``(meta, arrays)``, stamped with the registry
    name every model file carries."""
    if not getattr(model, "fitted", False):
        raise ConfigurationError("cannot save an unfitted model")
    model_type = model_type_of(model)
    meta, arrays = model.get_state()
    if not arrays:
        raise ConfigurationError(
            f"model of type {type(model).__name__} produced no state arrays"
        )
    meta = dict(meta)
    meta["model_type"] = model_type
    return meta, arrays


def npz_bytes(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """One ``.npz`` container, built in memory: a ``_meta`` JSON blob that
    records the format version and every array's shape and dtype, then
    the arrays.

    Model, delta and checkpoint files all use this container;
    :func:`read_npz` reads it back.  Writers that checksum what they
    publish hash these bytes, so nothing is read back to name a file.
    """
    meta = dict(meta)
    meta["format_version"] = _FORMAT_VERSION
    meta["shapes"] = {
        name: list(np.asarray(value).shape) for name, value in arrays.items()
    }
    meta["dtypes"] = {
        name: str(np.asarray(value).dtype) for name, value in arrays.items()
    }
    buffer = io.BytesIO()
    np.savez(buffer, _meta=np.array(json.dumps(meta)), **arrays)
    return buffer.getvalue()


def read_npz(
    source: str | pathlib.Path | bytes,
) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode an :func:`npz_bytes` container from a path or from its bytes.

    Returns the metadata and every array, each validated against the
    shape and dtype the metadata records; any failure is a
    :class:`ConfigurationError`.
    """
    if isinstance(source, bytes):
        path = pathlib.Path("<bytes>")
        data, meta = _load_npz_and_meta(io.BytesIO(source), path)
    else:
        path = pathlib.Path(source)
        data, meta = _load_npz_and_meta(path, path)
    return meta, _read_arrays_v2(data, meta, path)


def model_from_state(meta: dict, arrays: dict[str, np.ndarray]) -> object:
    """Rebuild a model from its file state through the model registry."""
    return model_class(meta.get("model_type")).from_state(meta, arrays)


def _load_npz_and_meta(
    source: pathlib.Path | io.BytesIO, path: pathlib.Path
) -> tuple[np.lib.npyio.NpzFile, dict]:
    try:
        data = np.load(source, allow_pickle=False)
    except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
        raise ConfigurationError(
            f"{path}: not a readable .npz file (corrupt or truncated): {exc}"
        ) from exc
    try:
        meta = json.loads(str(data["_meta"]))
    except KeyError:
        raise ConfigurationError(f"{path} is not a repro model file") from None
    except (zipfile.BadZipFile, ValueError, EOFError) as exc:
        raise ConfigurationError(
            f"{path}: metadata could not be decoded "
            f"(corrupt or truncated file): {exc}"
        ) from exc
    if meta.get("format_version") not in _SUPPORTED_VERSIONS:
        raise ConfigurationError(
            f"unsupported model-file version {meta.get('format_version')}"
        )
    return data, meta


def read_metadata(path: str | pathlib.Path) -> dict:
    """Return the JSON metadata of a saved model without restoring it.

    Includes the ``"extra"`` dict passed to :func:`save_model`, when one
    was stored.  Raises :class:`ConfigurationError` for files that are not
    valid repro model files.
    """
    path = pathlib.Path(path)
    _, meta = _load_npz_and_meta(path, path)
    return meta


def _read_arrays_v2(
    data: np.lib.npyio.NpzFile, meta: dict, path: pathlib.Path
) -> dict[str, np.ndarray]:
    """Load every state array, validated against the recorded shape/dtype."""
    shapes = meta.get("shapes")
    dtypes = meta.get("dtypes")
    if not isinstance(shapes, dict) or not isinstance(dtypes, dict):
        raise ConfigurationError(
            f"{path}: v2 model file is missing the shapes/dtypes metadata"
        )
    return {
        name: _read_array(
            data, name, path, tuple(shapes[name]), dtypes.get(name)
        )
        for name in shapes
    }


def _v1_encoder_meta(
    meta: dict, data: np.lib.npyio.NpzFile, path: pathlib.Path
) -> tuple[dict, dict[str, np.ndarray]]:
    """Translate a v1 encoder block into v2 state-protocol form."""
    in_features, dim = meta["in_features"], meta["dim"]
    kind = meta["encoder_type"]
    if kind == "nonlinear":
        enc_meta = {
            "type": "nonlinear",
            "in_features": in_features,
            "dim": dim,
            "scale": meta["scale"],
            "base_kind": meta["base_kind"],
        }
        arrays = {
            "encoder_bases": _read_array(
                data, "encoder_bases", path, (in_features, dim)
            ),
            "encoder_phases": _read_array(
                data, "encoder_phases", path, (dim,)
            ),
        }
        return enc_meta, arrays
    if kind == "projection":
        enc_meta = {
            "type": "projection",
            "in_features": in_features,
            "dim": dim,
            "scale": meta["scale"],
            "quantize": meta["quantize"],
        }
        arrays = {
            "encoder_bases": _read_array(
                data, "encoder_bases", path, (in_features, dim)
            )
        }
        return enc_meta, arrays
    raise ConfigurationError(
        f"unknown encoder_type {kind!r} in model file"
    )


def _upgrade_v1(
    data: np.lib.npyio.NpzFile, meta: dict, path: pathlib.Path
) -> tuple[dict, dict[str, np.ndarray]]:
    """Rewrite legacy v1 metadata into the v2 ``(meta, arrays)`` state.

    v1 stored flat per-type metadata (``y_mean``/``y_scale`` at the top
    level, a partial ``config`` dict for the multi-model) and relied on
    the loader's isinstance ladder; the upgrade produces exactly what the
    registered classes' ``from_state`` expects, so everything downstream
    of this function is version-agnostic.
    """
    enc_meta, arrays = _v1_encoder_meta(meta, data, path)
    model_type = meta.get("model_type")
    dim = meta["dim"]
    upgraded: dict = {
        "in_features": meta["in_features"],
        "encoder": enc_meta,
        "model_type": model_type,
        "fitted": True,
    }
    if "extra" in meta:
        upgraded["extra"] = meta["extra"]

    if model_type == "single":
        upgraded.update(
            lr=meta["lr"],
            batch_size=meta["batch_size"],
            scaler={
                "mean": meta["y_mean"],
                "scale": meta["y_scale"],
                "fitted": True,
            },
        )
        arrays["model_vector"] = _read_array(
            data, "model_vector", path, (dim,)
        )
        return upgraded, arrays
    if model_type == "multi":
        cfg = dict(meta["config"])
        upgraded.update(
            config=cfg,
            scaler={
                "mean": meta["y_mean"],
                "scale": meta["y_scale"],
                "fitted": True,
            },
        )
        k = cfg["n_models"]
        arrays["clusters_integer"] = _read_array(
            data, "clusters_integer", path, (k, dim)
        )
        arrays["models_integer"] = _read_array(
            data, "models_integer", path, (k, dim)
        )
        return upgraded, arrays
    if model_type == "baseline_hd":
        upgraded.update(
            n_bins=meta["n_bins"],
            lr=meta["lr"],
            batch_size=meta["batch_size"],
            y_low=meta["y_low"],
            y_high=meta["y_high"],
        )
        arrays["class_vectors"] = _read_array(
            data, "class_vectors", path, (meta["n_bins"], dim)
        )
        arrays["bin_centers"] = _read_array(
            data, "bin_centers", path, (meta["n_bins"],)
        )
        return upgraded, arrays
    raise ConfigurationError(
        f"unknown model_type {model_type!r} in model file"
    )


def save_delta(
    delta: ModelDelta, path: str | pathlib.Path
) -> pathlib.Path:
    """Serialise a :class:`~repro.core.delta.ModelDelta` to ``path``.

    Deltas are the wire unit of distributed training: a shard worker
    saves its captured delta, the coordinator loads and merges.  The
    file shares the model-file container (one ``.npz``, a ``_meta``
    JSON blob, shape/dtype-validated arrays) but is marked with
    ``kind: "delta"`` so :func:`load_model` refuses it with a pointed
    error instead of a registry failure.
    """
    path = pathlib.Path(path)
    arrays: dict[str, np.ndarray] = dict(delta.arrays)
    for name, counts in delta.row_counts.items():
        arrays[f"{_ROWCOUNT_PREFIX}{name}"] = np.asarray(counts)
    if not arrays:
        raise ConfigurationError("cannot save a delta with no arrays")
    meta = {
        "kind": "delta",
        "model_type": delta.model_type,
        "fingerprint": delta.fingerprint,
        "n_samples": int(delta.n_samples),
        "moments": delta.moments.to_meta(),
        "counted": sorted(delta.row_counts),
    }
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.write_bytes(npz_bytes(meta, arrays))
    return path


def load_delta(path: str | pathlib.Path) -> ModelDelta:
    """Restore a delta saved with :func:`save_delta` (bit-exact)."""
    meta, arrays = read_npz(path)
    if meta.get("kind") != "delta":
        raise ConfigurationError(
            f"{path} is a model file, not a delta file — use load_model"
        )
    row_counts = {
        name[len(_ROWCOUNT_PREFIX) :]: arrays.pop(name)
        for name in list(arrays)
        if name.startswith(_ROWCOUNT_PREFIX)
    }
    recorded = set(meta.get("counted", []))
    if recorded != set(row_counts):
        raise ConfigurationError(
            f"{path}: counted arrays {sorted(recorded)} do not match the "
            f"stored row counts {sorted(row_counts)}"
        )
    return ModelDelta(
        model_type=str(meta["model_type"]),
        fingerprint=dict(meta["fingerprint"]),
        n_samples=int(meta["n_samples"]),
        arrays=arrays,
        row_counts=row_counts,
        moments=TargetMoments.from_meta(meta["moments"]),
    )


def load_model(path: str | pathlib.Path) -> object:
    """Restore a model saved with :func:`save_model` (bit-exact).

    Array shapes and dtypes are validated against the file's own metadata,
    so a truncated or tampered file raises a descriptive
    :class:`ConfigurationError` instead of a raw numpy broadcast error.
    Both current (v2) and legacy (v1) files are supported; the restored
    class is resolved through :data:`~repro.registry.MODEL_REGISTRY`.
    """
    path = pathlib.Path(path)
    data, meta = _load_npz_and_meta(path, path)
    if meta.get("kind") == "delta":
        raise ConfigurationError(
            f"{path} is a delta file, not a model file — use load_delta"
        )
    if meta.get("kind") == "checkpoint":
        raise ConfigurationError(
            f"{path} is a checkpoint, whose encoder and history live in "
            "files beside it — restore it with CheckpointManager.load"
        )
    if meta["format_version"] == 1:
        meta, arrays = _upgrade_v1(data, meta, path)
    else:
        arrays = _read_arrays_v2(data, meta, path)
    return model_from_state(meta, arrays)
