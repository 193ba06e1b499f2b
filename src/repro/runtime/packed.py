"""The bit-packed kernels: XOR + popcount where quantisation allows.

Where a computation is defined over ±1 sign patterns, these kernels run
it over bit-packed uint64 words: the quantised cluster search (paper
Sec. 3.1 — any :class:`ClusterQuant` other than ``NONE``) and the
fully-binary model dots (Sec. 3.2, ``PredictQuant.BINARY_BOTH``).  The
packed sign products are *bit-exact* against the dense sign matmul (the
products are small integers), so quantised-search training on packed
words reproduces the dense trajectory exactly; only the fully-binary
dots differ, by float rounding in the scale multiplication order.

Both kernels read their sign products from
:meth:`~repro.runtime.Query.sign_products`: against a compiled plan
whose cluster and model sign words are stacked, a tile's query makes
one XOR-popcount pass that the search and the dots each read their own
columns of.

Everything not expressible over sign bits (full-precision cosine
similarities, integer-operand dots, the update arithmetic that must hit
the integer shadow copies exactly) falls through to the inherited dense
kernels.

:class:`PackedBackend` has no registry name of its own: it is the kernel
base that :class:`~repro.runtime.PackedV2Backend` (``"packed_v2"``)
extends with the fused encode→pack serving hook.
"""

from __future__ import annotations

from repro.runtime.quantization import ClusterQuant, PredictQuant
from repro.runtime import kernels
from repro.runtime.base import KernelBackend
from repro.types import FloatArray


class PackedBackend(KernelBackend):
    """Hamming-kernel base over bit-packed uint64 sign words."""

    def packs_similarities(self, cluster_quant: ClusterQuant) -> bool:
        return cluster_quant is not ClusterQuant.NONE

    def packs_dots(self, predict_quant: PredictQuant) -> bool:
        return predict_quant is PredictQuant.BINARY_BOTH

    def cluster_similarities(self, query, clusters) -> FloatArray:
        if self.packs_similarities(clusters.quant):
            return kernels.product_similarities(
                query.sign_products(clusters), clusters.dim
            )
        return super().cluster_similarities(query, clusters)

    def model_dots(self, query, models) -> FloatArray:
        if self.packs_dots(models.quant):
            return kernels.binary_dots(
                query.sign_products(models), query.scales, models.scales
            )
        return super().model_dots(query, models)
