"""Query-side operand bundle handed to kernel backends.

A :class:`Query` wraps one batch of encoded hypervectors ``S`` together
with what the kernels read besides it: the bit-packed uint64 sign words
(one bit per component) and the per-row binarisation scales (one float
per row), derived lazily and cached, so a dense backend that only reads
``S`` never pays for packing while the packed backend packs each batch
once.

A query caches no other float matrix beside ``S``.  The ±1 sign rows
and the scale-preserving binarised rows exist only where a caller built
them into its own buffer — the serving tile's scratch, a training
mini-batch's sign buffer (:meth:`Query.slice` with ``signs=``) — and a
dense kernel that finds none derives them per row tile, or into
transient rows the query does not keep (:meth:`Query.binarized_rows`).

A query's packed sign products against a compiled plan's stacked
sign words (:meth:`Query.sign_products`) are kept too: the plan's
cluster search and model dots read their own columns of one
XOR-popcount pass, one pass per serving tile.

The same reuse spans a whole training run: ``fit`` and ``partial_fit``
encode each set of rows into one query, every mini-batch of every epoch
is a :meth:`Query.slice` of it, and an estimator derives the words and
scales its kernels read up front, so a fit derives them once per row.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import kernels
from repro.runtime.packing import pack_sign_words, packed_sign_products
from repro.types import FloatArray


class Query:
    """One batch of encoded queries plus the derivations kernels read.

    Parameters
    ----------
    S:
        The ``(n, D)`` encoded (and, in training, row-normalised) batch.
        May be ``None`` for fully-packed serving queries built by the
        fused encode→pack pipeline — those carry ``words``/``scales``
        directly and no kernel on that path reads the float batch.
    signs, binarized:
        Optional ±1 sign rows and binarised rows the caller built into
        its own buffer.  A query never derives them itself.
    words, scales:
        Optional precomputed packed words and per-row scales; otherwise
        derived on first read and cached.
    """

    __slots__ = (
        "S", "signs", "binarized", "scratch", "_words", "_scales",
        "_against", "_products",
    )

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
        self.signs = signs
        self.binarized = binarized
        #: optional :class:`ScratchRows` that :meth:`binarized_rows`
        #: builds its transient in instead of allocating one per call
        self.scratch: ScratchRows | None = None
        self._words = words
        self._scales = scales
        #: the stacked sign words :attr:`_products` were taken against
        self._against: np.ndarray | None = None
        self._products: FloatArray | None = None

    def _require_S(self, derived: str) -> FloatArray:
        if self.S is None:
            raise ValueError(
                f"Query built without a float batch cannot derive {derived}"
            )
        return self.S

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
            self._scales = kernels.row_scales(self._require_S("scales"))
        return self._scales

    def sign_products(self, operand) -> FloatArray:
        """±1 sign products ``D − 2·hamming`` of these queries against the
        packed sign rows of a cluster or model ``operand``: exact integers
        in float64, one column per operand row.

        An operand whose words are a row range of a plan's stacked sign
        words (``operand.stack``, see
        :func:`~repro.runtime.operands.stack_sign_words`) gets its
        columns of one XOR-popcount pass against the whole stack, which
        the query keeps, so the plan's other operand reads its columns of
        the same pass.  Any other operand gets a pass of its own that the
        query does not keep.  The result may be a view of kept products:
        read it, never write it.
        """
        stack = operand.stack
        if stack is None:
            return packed_sign_products(self.words, operand.words, operand.dim)
        if self._against is not stack:
            self._products = packed_sign_products(self.words, stack, operand.dim)
            self._against = stack
        return self._products[:, operand.stack_rows]

    def binarized_rows(self) -> FloatArray:
        """Scale-preserving binarised queries, ``sign(S) * mean(|S|)``.

        The caller's :attr:`binarized` rows when it built them, else a
        transient ``(n, D)`` matrix that this query does not keep — in
        its :attr:`scratch` rows when it has some; bit-equal to
        :func:`~repro.runtime.binarize_preserving_scale` (zero-scale
        rows binarise to zero).
        """
        if self.binarized is not None:
            return self.binarized
        S = self._require_S("binarized rows")
        if self.scratch is not None:
            out = self.scratch.take(*S.shape)
        else:
            out = np.empty_like(S)
        return kernels.scale_signs(kernels.sign_rows(S, out), self.scales)

    def binarize_signs(self) -> FloatArray:
        """Turn the caller-built :attr:`signs` into :attr:`binarized`,
        in the same buffer; call it once every reader of the signs is
        done, as a mini-batch does between its similarities and its dots.
        """
        self.binarized = kernels.scale_signs(self.signs, self.scales)
        self.signs = None
        return self.binarized

    def slice(
        self, idx: np.ndarray, *, signs: FloatArray | None = None
    ) -> "Query":
        """A :class:`Query` for the rows ``idx`` of this batch.

        Every array this query already holds is carried over as the same
        rows (each derivation depends on its row alone), so the batch
        never re-derives what the whole query has computed; what the
        slice derives later stays on the slice.  A contiguous ascending
        run of rows — every ``partial_fit`` and stream-update mini-batch
        — is taken as views; any other rows are copies.  ``signs`` is a
        float buffer of at least ``len(idx)`` rows that the slice builds
        its ±1 sign rows into.
        """
        n = len(idx)
        lo = int(idx[0]) if n else 0
        rows = idx
        if np.array_equal(idx, np.arange(lo, lo + n)):
            rows = slice(lo, lo + n)

        def pick(array: np.ndarray | None) -> np.ndarray | None:
            return None if array is None else array[rows]

        query = Query(
            pick(self.S),
            signs=pick(self.signs),
            words=pick(self._words),
            scales=pick(self._scales),
            binarized=pick(self.binarized),
        )
        if signs is not None:
            query.signs = kernels.sign_rows(query._require_S("signs"), signs)
        return query


class ScratchRows:
    """One float buffer that queries build their transient binarised
    rows in, in turn (see :attr:`Query.scratch`).

    Allocated on first use, ``rows`` high, and released with the object:
    a fit hands one to its training and validation queries, so their
    per-epoch evaluations reuse one buffer instead of allocating a new
    ``(n, D)`` matrix per call, which the C allocator may keep resident
    once freed.  A model that reads no binarised rows never allocates it.
    """

    __slots__ = ("rows", "_array")

    def __init__(self, rows: int):
        self.rows = int(rows)
        self._array: FloatArray | None = None

    def take(self, n: int, width: int) -> FloatArray:
        """The first ``n`` rows of the buffer, ``width`` wide."""
        array = self._array
        if array is None or array.shape[1] != width or len(array) < n:
            array = self._array = np.empty((max(self.rows, n), width))
        return array[:n]
