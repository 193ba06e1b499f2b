"""Permutation-based sequence encoder.

Encodes a fixed-length window of scalar observations (a time-series
history) by encoding each element and rotating it by its position:
``H = sum_t permute(enc(x_t), t)``.  Rotation makes position explicit, so
the same value at different lags maps to nearly orthogonal hypervectors.
Used by the time-series forecasting example, which exercises RegHD on the
IoT-style streaming workloads the paper's introduction motivates.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.base import Encoder, frozen
from repro.exceptions import EncodingError
from repro.ops.generate import random_level_set
from repro.registry import register_encoder
from repro.types import FloatArray, SeedLike
from repro.utils.rng import derive_generator


@register_encoder("sequence")
class SequenceEncoder(Encoder):
    """Encode a length-``window`` sequence of scalars into HD space.

    Each scalar is mapped to a level hypervector (correlated chain, see
    :func:`repro.ops.generate.random_level_set`), rotated by its position
    in the window, and bundled.

    Parameters
    ----------
    window:
        Sequence length; this is the encoder's ``in_features``.
    dim, seed:
        As in the other encoders.
    levels:
        Number of scalar quantisation levels.
    value_range:
        ``(low, high)`` clipping range for the scalar values.
    """

    def __init__(
        self,
        window: int,
        dim: int,
        seed: SeedLike = None,
        *,
        levels: int = 64,
        value_range: tuple[float, float] = (-3.0, 3.0),
    ):
        super().__init__(window, dim)
        if levels < 2:
            raise EncodingError(f"levels must be >= 2, got {levels}")
        low, high = value_range
        if not low < high:
            raise EncodingError(
                f"value_range must satisfy low < high, got {value_range}"
            )
        self._levels = int(levels)
        self._low = float(low)
        self._high = float(high)
        level_rng = derive_generator(seed, 0)
        self._level_set = frozen(random_level_set(levels, dim, level_rng))

    @property
    def window(self) -> int:
        """Length of the encoded sequence window."""
        return self.in_features

    def _level_index(self, values: FloatArray) -> np.ndarray:
        clipped = np.clip(values, self._low, self._high)
        frac = (clipped - self._low) / (self._high - self._low)
        idx = np.floor(frac * self._levels).astype(np.int64)
        return np.minimum(idx, self._levels - 1)

    def _encode_batch(self, X: FloatArray) -> FloatArray:
        idx = self._level_index(X)  # (n_samples, window)
        out = np.zeros((X.shape[0], self.dim), dtype=np.float64)
        for t in range(self.window):
            level_vecs = self._level_set[idx[:, t]]
            out += np.roll(level_vecs, t, axis=1)
        return out

    def get_state(self) -> tuple[dict, "dict[str, np.ndarray]"]:
        """State-protocol snapshot: hyper-parameters plus the level set."""
        meta = {
            "in_features": self.in_features,
            "dim": self.dim,
            "levels": self._levels,
            "low": self._low,
            "high": self._high,
        }
        return meta, {"level_set": np.asarray(self._level_set)}

    @classmethod
    def from_state(
        cls, meta: dict, arrays: "dict[str, np.ndarray]"
    ) -> "SequenceEncoder":
        """Rebuild a bit-exact encoder from a :meth:`get_state` snapshot."""
        window, dim = int(meta["in_features"]), int(meta["dim"])
        levels = int(meta["levels"])
        encoder = cls(
            window,
            dim,
            seed=0,
            levels=levels,
            value_range=(float(meta["low"]), float(meta["high"])),
        )
        level_set = frozen(arrays["level_set"])
        if level_set.shape != (levels, dim):
            raise EncodingError(
                f"encoder state array 'level_set' has shape "
                f"{level_set.shape}, expected {(levels, dim)}"
            )
        encoder._level_set = level_set
        return encoder
