"""The bit-packed kernels: XOR + popcount where quantisation allows.

Where a computation is defined over ±1 sign patterns, these kernels run
it over bit-packed uint64 words: the quantised cluster search (paper
Sec. 3.1 — any :class:`ClusterQuant` other than ``NONE``) and the
fully-binary model dots (Sec. 3.2, ``PredictQuant.BINARY_BOTH``).  The
packed sign products are *bit-exact* against the dense sign matmul (the
products are small integers), so quantised-search training on packed
words reproduces the dense trajectory exactly; only the fully-binary
dots differ, by float rounding in the scale multiplication order.

Everything not expressible over sign bits (full-precision cosine
similarities, integer-operand dots, the update arithmetic that must hit
the integer shadow copies exactly) falls through to the inherited dense
kernels.

:class:`PackedBackend` has no registry name of its own: it is the kernel
base that :class:`~repro.runtime.PackedV2Backend` (``"packed_v2"``)
extends with the fused encode→pack serving hook.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.quantization import ClusterQuant, PredictQuant
from repro.runtime import kernels
from repro.runtime.base import KernelBackend
from repro.runtime.packing import pack_sign_words
from repro.runtime.query import Query
from repro.types import FloatArray


class PackedBackend(KernelBackend):
    """Hamming-kernel base over bit-packed uint64 sign words."""

    def packs_similarities(self, cluster_quant: ClusterQuant) -> bool:
        return cluster_quant is not ClusterQuant.NONE

    def packs_dots(self, predict_quant: PredictQuant) -> bool:
        return predict_quant is PredictQuant.BINARY_BOTH

    def make_training_cache(
        self,
        S: FloatArray,
        *,
        cluster_quant: ClusterQuant,
        predict_quant: PredictQuant,
    ) -> Query | None:
        """Pack the training matrix once when any packed kernel will run."""
        if self.packs_similarities(cluster_quant) or self.packs_dots(
            predict_quant
        ):
            return Query(
                S,
                words=pack_sign_words(S),
                scales=np.mean(np.abs(S), axis=1),
            )
        return None

    def cluster_similarities(self, query, clusters) -> FloatArray:
        if self.packs_similarities(clusters.quant):
            return kernels.hamming_similarities(
                query.words, clusters.words, clusters.dim
            )
        return super().cluster_similarities(query, clusters)

    def model_dots(self, query, models) -> FloatArray:
        if self.packs_dots(models.quant):
            return kernels.packed_scaled_dots(
                query.words,
                models.words,
                query.scales,
                models.scales,
                models.dim,
            )
        return super().model_dots(query, models)
