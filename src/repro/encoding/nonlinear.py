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
"""

from __future__ import annotations

import numpy as np

from repro.encoding.base import Encoder
from repro.exceptions import EncodingError
from repro.ops.generate import random_bipolar, random_gaussian
from repro.registry import register_encoder
from repro.types import FloatArray, SeedLike
from repro.utils.rng import derive_generator


def encode_into(
    X: FloatArray,
    bases: FloatArray,
    phases: FloatArray,
    scale: float,
    out: FloatArray,
    tmp: FloatArray,
) -> FloatArray:
    """Eq. (1) of the rows ``X`` written into ``out``; returns ``out``.

    Computes ``cos(X @ B * scale + b) * sin(X @ B * scale)`` in place:
    ``out`` and ``tmp`` are ``(len(X), dim)`` float64 buffers, ``tmp``
    holding the cosine term.  This is the one float implementation of
    the encoder — :class:`NonlinearEncoder` calls it with fresh buffers,
    the compiled engine's unfused tile with its scratch — so both encode
    every row bit for bit alike.
    """
    np.dot(X, bases, out=out)
    np.multiply(out, scale, out=out)
    np.add(out, phases, out=tmp)
    np.cos(tmp, out=tmp)
    np.sin(out, out=out)
    np.multiply(out, tmp, out=out)
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
            self._bases = random_bipolar(in_features, dim, base_rng).astype(
                np.float64
            )
        else:
            self._bases = random_gaussian(in_features, dim, base_rng)
        self._phases = phase_rng.uniform(0.0, 2.0 * np.pi, size=dim)

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
    def scale(self) -> float:
        """Projection bandwidth applied before the trig nonlinearity."""
        return self._scale

    def _encode_batch(self, X: FloatArray) -> FloatArray:
        out = np.empty((len(X), self.dim))
        return encode_into(
            X, self._bases, self._phases, self._scale, out, np.empty_like(out)
        )

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
        bases = np.asarray(arrays["bases"], dtype=np.float64)
        phases = np.asarray(arrays["phases"], dtype=np.float64)
        if bases.shape != (in_features, dim) or phases.shape != (dim,):
            raise EncodingError(
                f"encoder state arrays have shapes {bases.shape}/"
                f"{phases.shape}, expected {(in_features, dim)}/{(dim,)}"
            )
        encoder._bases = bases
        encoder._phases = phases
        return encoder

    def __repr__(self) -> str:
        return (
            f"NonlinearEncoder(in_features={self.in_features}, dim={self.dim}, "
            f"base={self._base_kind!r}, scale={self._scale:.4g})"
        )
