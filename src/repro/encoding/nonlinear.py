"""The paper's nonlinear similarity-preserving encoder (Eq. 1).

Equation (1) of the paper maps a feature vector ``F = (f_1, ..., f_n)`` to

    H_d = cos(F . B_d + b_d) * sin(F . B_d)

where each ``B_d`` is a column of a random base matrix (bipolar ±1 in the
paper, "randomly chosen hence orthogonal"), and ``b`` is a random phase
drawn uniformly from ``[0, 2π)``.  This is the encoding used across the
authors' HD-learning line of work (e.g. OnlineHD): a random projection
followed by a trigonometric nonlinearity, closely related to random Fourier
features.  Two properties matter for RegHD:

* **similarity preservation** — nearby inputs produce highly similar
  hypervectors, unrelated inputs produce nearly orthogonal ones;
* **nonlinearity** — the trig activation lifts the data so that a *linear*
  model in HD space (a dot product with a model hypervector) can fit a
  nonlinear function of the original features.  This is why RegHD "learns a
  regression model in an efficient and linear way" (paper abstract).

The code computes Eq. (1) through the product-to-sum identity

    2 H_d = 2 cos(p_d + b_d) sin(p_d) = sin(2 p_d + b_d) − sin(b_d)

with ``p = F . B * scale``: one transcendental per component instead of
two, since ``sin(b)`` is fixed per encoder.  :func:`double_h` is the one
kernel for it.  The float encoder halves its output once (exact for normal
floats) and the fused serving tile (:mod:`repro.runtime.fused`) keeps
``2H``, so wherever their projections round alike both take every sign
bit from the same float.  In floats the identity's ``H`` differs from the
product form by a few ulps.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.base import Encoder, frozen
from repro.exceptions import EncodingError
from repro.ops import halves
from repro.ops.generate import random_bipolar, random_gaussian
from repro.registry import register_encoder
from repro.types import FloatArray, SeedLike
from repro.utils.rng import derive_generator


def double_h(
    p: FloatArray, two_scale: float, phases: FloatArray, sin_phases: FloatArray
) -> None:
    """``p`` holds projections ``X @ B`` and becomes the doubled encoding
    ``2H = sin(2p·scale + φ) − sin φ`` in place, given ``two_scale =
    2·scale`` and ``sin_phases = sin φ``."""
    np.multiply(p, two_scale, out=p)
    np.add(p, phases, out=p)
    np.sin(p, out=p)
    np.subtract(p, sin_phases, out=p)


def _h_into(
    p: FloatArray, two_scale: float, phases: FloatArray, sin_phases: FloatArray
) -> None:
    """:func:`double_h`, then the one exact halving to ``H``."""
    double_h(p, two_scale, phases, sin_phases)
    np.multiply(p, 0.5, out=p)


def encode_into(
    X: FloatArray,
    bases: FloatArray,
    phases: FloatArray,
    scale: float,
    sin_phases: FloatArray,
    out: FloatArray,
) -> FloatArray:
    """Eq. (1) of the rows ``X`` written into ``out``; returns ``out``.

    ``out`` is a ``(len(X), dim)`` float64 buffer: the projection is one
    ``np.dot`` over the whole batch into it, then :func:`double_h` and
    one halving run in place, so an encoded batch costs one float
    matrix.  :class:`NonlinearEncoder` passes a fresh ``out`` and the
    compiled engine's unfused tile its scratch; both encode every row
    bit for bit alike.  This is the one float implementation of the
    encoder.

    A batch of two rows or more and at least
    :data:`~repro.ops.halves.SPLIT_ELEMENTS` components takes its
    elementwise part as row halves on two cores
    (:func:`~repro.ops.halves.run_rows`), bit for bit as in one pass.
    The dot is never cut: a 1-row ``np.dot`` runs BLAS gemv, which rounds
    differently from the same row inside a taller gemm.
    """
    np.dot(X, bases, out=out)
    halves.run_rows(_h_into, out, 2.0 * scale, phases, sin_phases)
    return out


@register_encoder("nonlinear")
class NonlinearEncoder(Encoder):
    """Nonlinear trigonometric encoder implementing paper Eq. (1).

    Parameters
    ----------
    in_features:
        Number of raw input features ``n``.
    dim:
        Hypervector dimensionality ``D`` (the paper uses D ≈ 4k-10k).
    seed:
        Seed for the random base matrix and phases.  The same seed must be
        used for training and prediction — RegHD requires "the same
        encoding module used during training" at query time, which this
        class guarantees by construction (the bases are drawn once in
        ``__init__`` and frozen).
    base:
        ``"gaussian"`` (default) draws N(0, 1) bases, making the map a
        random-Fourier-feature encoder; ``"bipolar"`` draws the ±1 bases
        the paper's Eq. (1) describes.  Both satisfy the
        near-orthogonality requirement, but for *low-dimensional* inputs
        (n ≲ 15, which covers every dataset in the paper's Table 1) the
        bipolar projection ``x . B_d`` can only take 2^n distinct values
        across dimensions, collapsing the encoding's effective rank to
        ≤ 2^n and crippling regression quality.  Gaussian bases avoid the
        collapse; the authors' released implementations of this encoder
        (the OnlineHD code line) use Gaussian projections for the same
        reason.  See DESIGN.md §3.
    scale:
        Projection bandwidth.  The raw projection is ``X @ B * scale``;
        smaller values produce smoother (more similarity-preserving)
        encodings, larger values more orthogonal ones.  ``1/sqrt(n)`` by
        default, which keeps the projection variance O(1) per dimension
        for standardised inputs.
    """

    def __init__(
        self,
        in_features: int,
        dim: int,
        seed: SeedLike = None,
        *,
        base: str = "gaussian",
        scale: float | None = None,
    ):
        super().__init__(in_features, dim)
        if base not in ("bipolar", "gaussian"):
            raise EncodingError(
                f"base must be 'bipolar' or 'gaussian', got {base!r}"
            )
        if scale is None:
            scale = 1.0 / np.sqrt(in_features)
        if scale <= 0:
            raise EncodingError(f"scale must be > 0, got {scale}")
        self._base_kind = base
        self._scale = float(scale)

        base_rng = derive_generator(seed, 0)
        phase_rng = derive_generator(seed, 1)
        if base == "bipolar":
            # (in_features, dim) so a batch encodes as one matmul.
            bases = random_bipolar(in_features, dim, base_rng)
        else:
            bases = random_gaussian(in_features, dim, base_rng)
        self._bases = frozen(bases)
        self._phases = frozen(phase_rng.uniform(0.0, 2.0 * np.pi, size=dim))
        # Derived from the phases, never saved.
        self._sin_phases = frozen(np.sin(self._phases))

    @property
    def bases(self) -> FloatArray:
        """The frozen ``(in_features, dim)`` base matrix (read-only view)."""
        view = self._bases.view()
        view.flags.writeable = False
        return view

    @property
    def phases(self) -> FloatArray:
        """The frozen ``(dim,)`` random phase vector (read-only view)."""
        view = self._phases.view()
        view.flags.writeable = False
        return view

    @property
    def sin_phases(self) -> FloatArray:
        """``sin(phases)``, the input-independent term of the doubled
        encoding ``2H`` (read-only view)."""
        view = self._sin_phases.view()
        view.flags.writeable = False
        return view

    @property
    def scale(self) -> float:
        """Projection bandwidth applied before the trig nonlinearity."""
        return self._scale

    def _encode_batch(self, X: FloatArray) -> FloatArray:
        ops = (self._bases, self._phases, self._scale, self._sin_phases)
        return encode_into(X, *ops, np.empty((len(X), self.dim)))

    def get_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """State-protocol snapshot: hyper-parameters plus frozen arrays."""
        meta = {
            "in_features": self.in_features,
            "dim": self.dim,
            "scale": self._scale,
            "base_kind": self._base_kind,
        }
        arrays = {
            "bases": np.asarray(self._bases),
            "phases": np.asarray(self._phases),
        }
        return meta, arrays

    @classmethod
    def from_state(
        cls, meta: dict, arrays: "dict[str, np.ndarray]"
    ) -> "NonlinearEncoder":
        """Rebuild a bit-exact encoder from a :meth:`get_state` snapshot."""
        in_features, dim = int(meta["in_features"]), int(meta["dim"])
        encoder = cls(
            in_features,
            dim,
            seed=0,
            base=meta["base_kind"],
            scale=meta["scale"],
        )
        bases = frozen(arrays["bases"])
        phases = frozen(arrays["phases"])
        if bases.shape != (in_features, dim) or phases.shape != (dim,):
            raise EncodingError(
                f"encoder state arrays have shapes {bases.shape}/"
                f"{phases.shape}, expected {(in_features, dim)}/{(dim,)}"
            )
        encoder._bases = bases
        encoder._phases = phases
        encoder._sin_phases = frozen(np.sin(phases))
        return encoder

    def __repr__(self) -> str:
        return (
            f"NonlinearEncoder(in_features={self.in_features}, dim={self.dim}, "
            f"base={self._base_kind!r}, scale={self._scale:.4g})"
        )
