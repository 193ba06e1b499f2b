"""The packed backend (``"packed_v2"``): Hamming kernels plus fused
encode→pack serving.

:class:`PackedV2Backend` is the one registered packed backend.  It
inherits every Hamming/packed-dot kernel of :class:`PackedBackend`
(cache-blocked — see :func:`repro.runtime.packing._pairwise_popcount_xor`)
and adds the fused encode→pack entry point of :mod:`repro.runtime.fused`:
when both the cluster search and the model dots consume packed words
(``cluster_quant != NONE`` and ``predict_quant == BINARY_BOTH``), a
compiled plan encodes raw feature rows directly into uint64 sign words
plus binary-query scales, one cache-resident column block at a time,
using the single-trig product-to-sum identity — the full float
hypervector tile is never materialised.

Training runs the inherited kernels; only compiled-plan serving gains
the fused pipeline.  Fused-plan predictions agree with the dense
reference to float rounding (the packed sign products themselves stay
exact integers).
"""

from __future__ import annotations

import numpy as np

from repro.registry import register_backend
from repro.runtime import fused
from repro.runtime.packed import PackedBackend
from repro.runtime.quantization import ClusterQuant, PredictQuant
from repro.types import FloatArray


@register_backend("packed_v2")
class PackedV2Backend(PackedBackend):
    """Packed backend with the fused encode→pack serving pipeline."""

    def fuses_encode(
        self, cluster_quant: ClusterQuant, predict_quant: PredictQuant
    ) -> bool:
        """Fused serving applies when *every* heavy stage runs packed —
        the float encoding then has no remaining consumer."""
        return self.packs_similarities(cluster_quant) and self.packs_dots(
            predict_quant
        )

    def encode_pack(
        self,
        X: FloatArray,
        enc: fused.EncoderOperands,
        scratch: fused.FusedScratch,
    ) -> tuple[np.ndarray, FloatArray]:
        """Fused raw-rows → (packed sign words, binary-query scales)."""
        return fused.encode_pack_tile(X, enc, scratch)
