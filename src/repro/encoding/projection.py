"""Linear random-projection encoder (ablation baseline).

Identical to :class:`~repro.encoding.nonlinear.NonlinearEncoder` but without
the trigonometric activation: ``H = X @ B`` (optionally sign-quantised).
Used by the encoder ablation benchmarks to demonstrate that the
*nonlinearity* of Eq. (1) — not just the dimensionality lift — is what lets
RegHD fit nonlinear regression targets with a linear HD-space model.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.base import Encoder, frozen
from repro.exceptions import EncodingError
from repro.ops.generate import random_bipolar, random_gaussian
from repro.registry import register_encoder
from repro.types import FloatArray, SeedLike
from repro.utils.rng import derive_generator


@register_encoder("projection")
class RandomProjectionEncoder(Encoder):
    """Linear projection into HD space: ``H = (X @ B) * scale``.

    Parameters
    ----------
    in_features, dim, seed:
        As in :class:`~repro.encoding.nonlinear.NonlinearEncoder`.
    base:
        ``"bipolar"`` (±1 entries) or ``"gaussian"``.
    quantize:
        When true the output is sign-quantised to bipolar ±1 per element,
        which is the classic binary random-projection encoding.
    scale:
        Multiplier on the projection; defaults to ``1/sqrt(in_features)``.
    """

    def __init__(
        self,
        in_features: int,
        dim: int,
        seed: SeedLike = None,
        *,
        base: str = "bipolar",
        quantize: bool = False,
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
        self._quantize = bool(quantize)
        self._scale = float(scale)
        rng = derive_generator(seed, 0)
        if base == "bipolar":
            self._bases = frozen(random_bipolar(in_features, dim, rng))
        else:
            self._bases = frozen(random_gaussian(in_features, dim, rng))

    @property
    def quantize(self) -> bool:
        """Whether the projection output is sign-quantised."""
        return self._quantize

    def _encode_batch(self, X: FloatArray) -> FloatArray:
        projected = (X @ self._bases) * self._scale
        if not self._quantize:
            return projected
        out = np.sign(projected)
        out[out == 0] = 1.0
        return out

    def get_state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """State-protocol snapshot: hyper-parameters plus frozen bases."""
        meta = {
            "in_features": self.in_features,
            "dim": self.dim,
            "scale": self._scale,
            "quantize": self._quantize,
        }
        return meta, {"bases": np.asarray(self._bases)}

    @classmethod
    def from_state(
        cls, meta: dict, arrays: "dict[str, np.ndarray]"
    ) -> "RandomProjectionEncoder":
        """Rebuild a bit-exact encoder from a :meth:`get_state` snapshot."""
        in_features, dim = int(meta["in_features"]), int(meta["dim"])
        encoder = cls(
            in_features,
            dim,
            seed=0,
            quantize=meta["quantize"],
            scale=meta["scale"],
        )
        bases = frozen(arrays["bases"])
        if bases.shape != (in_features, dim):
            raise EncodingError(
                f"encoder state array 'bases' has shape {bases.shape}, "
                f"expected {(in_features, dim)}"
            )
        encoder._bases = bases
        return encoder
