"""Model-side operands: live training views and frozen serving snapshots.

Backends are stateless; the *operands* carry the cluster / model
hypervectors in whatever representation the selected kernels consume.
Two flavours exist:

* **live operands** (:class:`ClusterOperand`, :class:`ModelOperand`) wrap
  an estimator's :class:`~repro.core.quantization.DualCopy` directly.
  Integer-derived values (matrices, norms) are views or per-call
  recomputations — bit-identical to reading the shadow copies inline,
  and immune to out-of-band writes by fault injectors.  Packed sign
  words come from the frozen snapshot path below: each live operand
  keeps its last packed snapshot and refreshes it, so only the rows
  whose ``DualCopy.sign_versions`` moved are re-packed, because the
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

A plan whose cluster search and model dots both run on packed words
keeps the two operands' sign words as the two row ranges of one
read-only ``(2k, W)`` array (:func:`stack_sign_words`), so each tile's
query makes one XOR-popcount pass against it
(:meth:`~repro.runtime.Query.sign_products`).
"""

from __future__ import annotations

import numpy as np

from repro.runtime.quantization import ClusterQuant, DualCopy, PredictQuant
from repro.runtime.kernels import NORM_EPS
from repro.runtime.packing import pack_sign_words
from repro.types import FloatArray


def rederive_sign_rows(
    out: np.ndarray, dual: DualCopy, rows: np.ndarray
) -> None:
    """Re-derive, in place, the ``rows`` of a sign-derived array of ``dual``.

    ``out`` holds the sign pattern as packed ``uint64`` words ``(k, W)``
    or as float ±1 signs transposed to ``(D, k)``; ``rows`` is a boolean
    mask over the rows of ``dual``.  Words are taken from one packing of
    all ``k`` rows, whose temporaries are bool and packed rows: indexing
    the moved float rows out of ``dual.signs`` first would copy eight
    bytes per component.
    """
    if out.dtype == np.uint64:
        out[rows] = pack_sign_words(dual.signs)[rows]
    else:
        out[:, rows] = dual.signs[rows].T


def cluster_norms(dual: DualCopy) -> FloatArray:
    """Row norms of the integer clusters, floored at :data:`NORM_EPS`."""
    return np.maximum(np.linalg.norm(dual.integer, axis=1), NORM_EPS)


class ClusterOperand:
    """Live view of the cluster hypervectors for the training hot loop."""

    #: live operands pack their words alone, never into a plan's stack
    stack = None

    def __init__(self, dual: DualCopy, quant: ClusterQuant):
        self.dual = dual
        self.quant = quant
        self._packed: FrozenClusterOperand | None = None

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
        """Packed sign words of a quantised search, read-only; refreshed
        from the last snapshot, so only rows whose signs moved re-pack."""
        self._packed, _ = freeze_cluster_operand(
            self.dual, self.quant, packed=True, previous=self._packed
        )
        return self._packed.words


class ModelOperand:
    """Live view of the model hypervectors for the training hot loop."""

    stack = None

    def __init__(self, dual: DualCopy, quant: PredictQuant):
        self.dual = dual
        self.quant = quant
        self._packed: FrozenModelOperand | None = None

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
        """Packed sign words, read-only; refreshed as
        :attr:`ClusterOperand.words` is."""
        self._packed, _ = freeze_model_operand(
            self.dual, self.quant, packed=True, previous=self._packed
        )
        return self._packed.words


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
    ``stack`` / ``stack_rows``: the plan's stacked sign words and the
    rows of it that ``words`` is, when :func:`stack_sign_words` stacked
    them; else ``None``.
    """

    __slots__ = (
        "quant", "dim", "version", "sign_versions",
        "matT", "norms", "signsT", "words", "stack", "stack_rows",
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
        self.stack: np.ndarray | None = None
        self.stack_rows: slice | None = None

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(
            a for a in (self.matT, self.norms, self.signsT, self.words)
            if a is not None
        )


class FrozenModelOperand:
    """Read-only model operands snapshotted into a compiled plan.

    Records its source versions, and its place in a stack, as
    :class:`FrozenClusterOperand` does.
    """

    __slots__ = (
        "quant", "dim", "version", "sign_versions", "matT", "words", "scales",
        "stack", "stack_rows",
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
        self.stack: np.ndarray | None = None
        self.stack_rows: slice | None = None

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


def stack_sign_words(
    cluster_op: FrozenClusterOperand,
    model_op: FrozenModelOperand,
    previous: np.ndarray | None = None,
) -> None:
    """Put the packed sign words of one plan's two fresh operands into one
    read-only ``(2k, W)`` array: cluster rows first, then model rows.

    Each operand's ``words`` becomes its row range of the array, which
    ``stack`` and ``stack_rows`` record.  ``previous`` is the stack of
    the plan being refreshed: when neither operand re-packed a row (both
    still hold their previous words, views of that stack), the stack and
    the views are shared; otherwise the rows are copied into a new
    array.  No stack is written once built.
    """
    shared = previous is not None and all(
        op.words.base is previous for op in (cluster_op, model_op)
    )
    if shared:
        stack = previous
    else:
        stack = np.concatenate((cluster_op.words, model_op.words))
        stack.flags.writeable = False
    k = len(cluster_op.words)
    for op, rows in ((cluster_op, slice(0, k)), (model_op, slice(k, None))):
        if not shared:
            op.words = stack[rows]
        op.stack, op.stack_rows = stack, rows
