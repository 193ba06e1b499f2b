"""Model-side operands: live training views and frozen serving snapshots.

Backends are stateless; the *operands* carry the cluster / model
hypervectors in whatever representation the selected kernels consume.
Two flavours exist:

* **live operands** (:class:`ClusterOperand`, :class:`ModelOperand`) wrap
  an estimator's :class:`~repro.core.quantization.DualCopy` directly.
  Integer-derived values (matrices, norms) are views or per-call
  recomputations — bit-identical to reading the shadow copies inline,
  and immune to out-of-band writes by fault injectors.  Sign-derived
  values (packed words) are cached per row and keyed on
  ``DualCopy.sign_versions`` via :class:`PackedWordsCache`, because the
  sign pattern only moves at re-binarisation.
* **frozen operands** (:class:`FrozenClusterOperand`,
  :class:`FrozenModelOperand`) are the read-only snapshots a
  :class:`~repro.engine.CompiledPlan` serves from.
  :func:`freeze_cluster_operand` / :func:`freeze_model_operand` are the
  one snapshot path, for compiling and refreshing alike.  Refreshing
  never writes the previous snapshot: the new one shares every array
  whose source did not move and re-packs **only** the rows whose sign
  version moved, so streaming serves from a cheap succession of plans
  instead of recompiling after every online batch.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.quantization import ClusterQuant, DualCopy, PredictQuant
from repro.runtime.kernels import NORM_EPS
from repro.runtime.packing import pack_sign_words
from repro.telemetry import metrics as _metrics
from repro.types import FloatArray


def rederive_sign_rows(
    out: np.ndarray, dual: DualCopy, rows: np.ndarray
) -> None:
    """Re-derive, in place, the ``rows`` of a sign-derived array of ``dual``.

    ``out`` holds the sign pattern as packed ``uint64`` words ``(k, W)``
    or as float ±1 signs transposed to ``(D, k)``; ``rows`` is a boolean
    mask over the rows of ``dual``.
    """
    signs = dual.signs[rows]
    if out.dtype == np.uint64:
        out[rows] = pack_sign_words(signs)
    else:
        out[:, rows] = signs.T


class PackedWordsCache:
    """Per-row incrementally maintained packed sign words of a DualCopy.

    ``words()`` compares the source's ``sign_versions`` against the last
    snapshot and re-packs only the changed rows.  Counters record the
    split for the refresh micro-benchmarks.
    """

    def __init__(self, dual: DualCopy):
        self.dual = dual
        self._words: np.ndarray | None = None
        self._seen: np.ndarray | None = None
        self.rows_repacked = 0
        self.rows_reused = 0

    def words(self) -> np.ndarray:
        versions = self.dual.sign_versions
        if self._words is None:
            self._words = pack_sign_words(self.dual.signs)
            self._seen = versions.copy()
            self._count(len(versions), 0)
            return self._words
        changed = versions != self._seen
        n_changed = int(np.count_nonzero(changed))
        if n_changed:
            rederive_sign_rows(self._words, self.dual, changed)
            self._seen[changed] = versions[changed]
        self._count(n_changed, len(versions) - n_changed)
        return self._words

    def _count(self, repacked: int, reused: int) -> None:
        self.rows_repacked += repacked
        self.rows_reused += reused
        registry = _metrics.active()
        if registry is not None:
            if repacked:
                registry.counter(
                    "reghd_packed_words_rows_total", event="repacked"
                ).inc(repacked)
            if reused:
                registry.counter(
                    "reghd_packed_words_rows_total", event="reused"
                ).inc(reused)


def cluster_norms(dual: DualCopy) -> FloatArray:
    """Row norms of the integer clusters, floored at :data:`NORM_EPS`."""
    return np.maximum(np.linalg.norm(dual.integer, axis=1), NORM_EPS)


class ClusterOperand:
    """Live view of the cluster hypervectors for the training hot loop."""

    def __init__(self, dual: DualCopy, quant: ClusterQuant):
        self.dual = dual
        self.quant = quant
        self._words_cache: PackedWordsCache | None = None

    @property
    def dim(self) -> int:
        return self.dual.shape[1]

    @property
    def matT(self) -> FloatArray:
        """Integer clusters, transposed (live view)."""
        return self.dual.integer.T

    @property
    def norms(self) -> FloatArray:
        """Recomputed per call: training updates move the norms every batch."""
        return cluster_norms(self.dual)

    @property
    def signsT(self) -> FloatArray:
        return self.dual.signs.T

    @property
    def words(self) -> np.ndarray:
        if self._words_cache is None:
            self._words_cache = PackedWordsCache(self.dual)
        return self._words_cache.words()


class ModelOperand:
    """Live view of the model hypervectors for the training hot loop."""

    def __init__(self, dual: DualCopy, quant: PredictQuant):
        self.dual = dual
        self.quant = quant
        self._words_cache: PackedWordsCache | None = None

    @property
    def dim(self) -> int:
        return self.dual.shape[1]

    @property
    def matT(self) -> FloatArray:
        """The effective model matrix (Sec. 3.2 operand choice), transposed."""
        base = self.dual.binary if self.quant.model_is_binary else self.dual.integer
        return base.T

    @property
    def scales(self) -> FloatArray:
        return self.dual.scales

    @property
    def words(self) -> np.ndarray:
        if self._words_cache is None:
            self._words_cache = PackedWordsCache(self.dual)
        return self._words_cache.words()


# -- frozen snapshots -------------------------------------------------------


def frozen_copy(values: np.ndarray) -> np.ndarray:
    """Contiguous read-only copy decoupled from its source."""
    out = np.array(values, order="C")
    out.flags.writeable = False
    return out


class FrozenClusterOperand:
    """Read-only cluster operands snapshotted into a compiled plan.

    ``version`` / ``sign_versions`` record the :class:`DualCopy` state the
    arrays were taken from, so the next snapshot knows which it may share.
    """

    __slots__ = (
        "quant", "dim", "version", "sign_versions",
        "matT", "norms", "signsT", "words",
    )

    def __init__(
        self,
        quant: ClusterQuant,
        dim: int,
        version: int,
        sign_versions: np.ndarray,
        *,
        matT: np.ndarray | None = None,
        norms: np.ndarray | None = None,
        signsT: np.ndarray | None = None,
        words: np.ndarray | None = None,
    ):
        self.quant = quant
        self.dim = dim
        self.version = version
        self.sign_versions = sign_versions
        self.matT = matT
        self.norms = norms
        self.signsT = signsT
        self.words = words

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(
            a for a in (self.matT, self.norms, self.signsT, self.words)
            if a is not None
        )


class FrozenModelOperand:
    """Read-only model operands snapshotted into a compiled plan.

    Records its source versions as :class:`FrozenClusterOperand` does.
    """

    __slots__ = (
        "quant", "dim", "version", "sign_versions", "matT", "words", "scales",
    )

    def __init__(
        self,
        quant: PredictQuant,
        dim: int,
        version: int,
        sign_versions: np.ndarray,
        *,
        matT: np.ndarray | None = None,
        words: np.ndarray | None = None,
        scales: np.ndarray | None = None,
    ):
        self.quant = quant
        self.dim = dim
        self.version = version
        self.sign_versions = sign_versions
        self.matT = matT
        self.words = words
        self.scales = scales

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(
            a for a in (self.matT, self.words, self.scales) if a is not None
        )


def _moved(dual: DualCopy, previous) -> tuple[bool, np.ndarray, np.ndarray]:
    """``dual`` against the snapshot ``previous`` was taken from.

    Returns whether ``dual.version`` moved, the mask of rows whose sign
    pattern moved (every row when there is no ``previous``), and the
    ``sign_versions`` the new snapshot records (``previous``'s own when
    no row moved).
    """
    if previous is None:
        rows = np.ones(dual.shape[0], dtype=bool)
        return True, rows, frozen_copy(dual.sign_versions)
    rows = dual.sign_versions != previous.sign_versions
    if rows.any():
        sign_versions = frozen_copy(dual.sign_versions)
    else:
        sign_versions = previous.sign_versions
    return previous.version != dual.version, rows, sign_versions


def _whole(previous, name: str, moved: bool, values) -> np.ndarray:
    """A full-precision array: ``values()`` copied whole when the version
    moved, else ``previous``'s array shared."""
    return frozen_copy(values()) if moved else getattr(previous, name)


def _signed(previous, name: str, dual: DualCopy, rows, fresh) -> np.ndarray:
    """A sign-derived array: ``fresh()`` at compile time, else a copy of
    ``previous``'s array with only the moved ``rows`` re-derived (shared
    outright when no row moved)."""
    if previous is None:
        return frozen_copy(fresh())
    out = getattr(previous, name)
    if rows.any():
        out = out.copy()
        rederive_sign_rows(out, dual, rows)
        out.flags.writeable = False
    return out


def freeze_cluster_operand(
    dual: DualCopy,
    quant: ClusterQuant,
    *,
    packed: bool,
    previous: FrozenClusterOperand | None = None,
) -> tuple[FrozenClusterOperand, int]:
    """Snapshot cluster operands; returns ``(operand, rows_taken)``.

    ``previous`` is the snapshot being refreshed, left untouched: arrays
    whose source did not move are shared with it, sign-derived arrays
    re-derive only the rows whose sign version moved, and full-precision
    arrays are copied whole when ``dual.version`` moved.  ``rows_taken``
    counts the rows re-derived from ``dual`` (all of them at compile
    time).
    """
    k, dim = dual.shape
    moved, rows, sign_versions = _moved(dual, previous)
    if quant is ClusterQuant.NONE:
        arrays = {
            "matT": _whole(previous, "matT", moved, lambda: dual.integer.T),
            "norms": _whole(
                previous, "norms", moved, lambda: cluster_norms(dual)
            ),
        }
        taken = k if moved else 0
    else:
        if packed:
            name, fresh = "words", lambda: pack_sign_words(dual.signs)
        else:
            name, fresh = "signsT", lambda: dual.signs.T
        arrays = {name: _signed(previous, name, dual, rows, fresh)}
        taken = int(np.count_nonzero(rows))
    op = FrozenClusterOperand(quant, dim, dual.version, sign_versions, **arrays)
    return op, taken


def freeze_model_operand(
    dual: DualCopy,
    quant: PredictQuant,
    *,
    packed: bool,
    previous: FrozenModelOperand | None = None,
) -> tuple[FrozenModelOperand, int]:
    """Snapshot model operands; returns ``(operand, rows_taken)``.

    Shares and re-derives exactly as :func:`freeze_cluster_operand`.
    Packed operands count only re-packed word rows: their per-row scales
    are cheap ``(k,)`` floats that move under pure magnitude decay, so
    the common streaming case of forgetting-decay plus small updates
    re-packs nothing.
    """
    k, dim = dual.shape
    moved, rows, sign_versions = _moved(dual, previous)
    if packed:
        arrays = {
            "words": _signed(
                previous, "words", dual, rows,
                lambda: pack_sign_words(dual.signs),
            ),
            "scales": _whole(previous, "scales", moved, lambda: dual.scales),
        }
        taken = int(np.count_nonzero(rows))
    else:
        base = dual.binary if quant.model_is_binary else dual.integer
        arrays = {"matT": _whole(previous, "matT", moved, lambda: base.T)}
        taken = k if moved else 0
    op = FrozenModelOperand(quant, dim, dual.version, sign_versions, **arrays)
    return op, taken
