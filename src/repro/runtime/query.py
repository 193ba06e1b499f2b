"""Query-side operand bundle handed to kernel backends.

A :class:`Query` wraps one batch of encoded hypervectors ``S`` together
with the derived representations the kernels may need — the ±1 sign
pattern, the bit-packed uint64 words, the per-row binarisation scales and
the scale-preserving binarised matrix.  Derivations are lazy and cached,
so a dense backend that only reads ``S`` never pays for packing, while
the packed backend computes words exactly once per batch.

The same reuse spans a whole training run: the trainer presents the same
encoded matrix ``S`` every epoch, so
:meth:`~repro.runtime.KernelBackend.make_training_cache` derives its
packed words and scales once up front, and epoch batches are served as
:meth:`Query.slice` row slices of that one query.
"""

from __future__ import annotations

import numpy as np

from repro.ops.quantize import bipolarize
from repro.runtime.packing import pack_sign_words
from repro.types import FloatArray


class Query:
    """One batch of encoded queries plus lazily derived representations.

    Parameters
    ----------
    S:
        The ``(n, D)`` encoded (and, in training, row-normalised) batch.
        May be ``None`` for fully-packed serving queries built by the
        fused encode→pack pipeline — those carry ``words``/``scales``
        directly and no kernel on that path reads the float batch.
    signs, words, scales, binarized:
        Optional precomputed derivations.  The serving executor passes
        these in (it derives them into scratch buffers with its own
        normalisation pipeline); training queries derive them on demand.
    """

    __slots__ = ("S", "_signs", "_words", "_scales", "_binarized")

    def __init__(
        self,
        S: FloatArray | None,
        *,
        signs: FloatArray | None = None,
        words: np.ndarray | None = None,
        scales: FloatArray | None = None,
        binarized: FloatArray | None = None,
    ):
        self.S = S
        self._signs = signs
        self._words = words
        self._scales = scales
        self._binarized = binarized

    def _require_S(self, derived: str) -> FloatArray:
        if self.S is None:
            raise ValueError(
                f"Query built without a float batch cannot derive {derived}"
            )
        return self.S

    @property
    def signs(self) -> FloatArray:
        """±1 sign pattern of ``S`` (zeros map to +1)."""
        if self._signs is None:
            self._signs = bipolarize(self._require_S("signs")).astype(
                np.float64
            )
        return self._signs

    @property
    def words(self) -> np.ndarray:
        """Bit-packed uint64 sign words of ``S``."""
        if self._words is None:
            self._words = pack_sign_words(self._require_S("words"))
        return self._words

    @property
    def scales(self) -> FloatArray:
        """Per-row binarisation scale ``mean(|S_i|)``."""
        if self._scales is None:
            self._scales = np.mean(np.abs(self._require_S("scales")), axis=1)
        return self._scales

    @property
    def binarized(self) -> FloatArray:
        """Scale-preserving binarised queries, ``sign(S) * mean(|S|)``.

        Built from this query's own cached :attr:`signs` and
        :attr:`scales`, so the sign pattern is derived once for both;
        bit-equal to :func:`~repro.runtime.binarize_preserving_scale`
        (zero-scale rows binarise to zero).
        """
        if self._binarized is None:
            scales = self.scales
            binarized = self.signs * scales[:, np.newaxis]
            binarized[scales == 0.0] = 0.0
            self._binarized = binarized
        return self._binarized

    def slice(self, idx: np.ndarray) -> "Query":
        """A :class:`Query` for the rows ``idx`` of this batch.

        Every array this query already holds is carried over as the same
        rows (each derivation depends on its row alone), so the batch
        never re-derives what the whole query has computed.  A contiguous
        ascending run of rows, such as a ``partial_fit`` mini-batch, is
        taken as views instead of copies.
        """
        rows = idx
        if len(idx) and np.array_equal(
            idx, np.arange(idx[0], idx[0] + len(idx))
        ):
            rows = slice(idx[0], idx[0] + len(idx))

        def pick(array: np.ndarray | None) -> np.ndarray | None:
            return None if array is None else array[rows]

        return Query(
            pick(self.S),
            signs=pick(self._signs),
            words=pick(self._words),
            scales=pick(self._scales),
            binarized=pick(self._binarized),
        )

