"""Micro-benchmark — packed binary Hamming search vs float dot products.

The Section-3 hardware argument, demonstrated in software on this machine:
the quantised cluster search (XOR + popcount over packed words) against
the full-precision search (float matrix product) for the same k x D
similarity problem.  The asserted shape: the packed path touches 64x less
memory and, at benchmark-standard sizes, is not slower than the float
path (on most hosts it is several times faster).
"""

from __future__ import annotations

import numpy as np
import pytest

from _common import save_result
from repro.evaluation import render_table
from repro.ops.generate import random_bipolar
from repro.runtime.packing import pack_bits, packed_hamming_similarity
from repro.ops.quantize import bipolar_to_binary

D = 4000
K = 32
N_QUERIES = 256


@pytest.fixture(scope="module")
def operands():
    clusters = random_bipolar(K, D, seed=0)
    queries = random_bipolar(N_QUERIES, D, seed=1)
    clusters_f = clusters.astype(np.float64)
    queries_f = queries.astype(np.float64)
    packed_clusters, _ = pack_bits(bipolar_to_binary(clusters))
    packed_queries, _ = pack_bits(bipolar_to_binary(queries))
    return clusters_f, queries_f, packed_clusters, packed_queries


def test_float_dot_search(benchmark, operands):
    clusters_f, queries_f, _, _ = operands
    result = benchmark(lambda: queries_f @ clusters_f.T / D)
    assert result.shape == (N_QUERIES, K)


def test_packed_hamming_search(benchmark, operands):
    clusters_f, queries_f, packed_clusters, packed_queries = operands
    result = benchmark(
        lambda: packed_hamming_similarity(packed_queries, packed_clusters, D)
    )
    assert result.shape == (N_QUERIES, K)
    # Numerical equivalence with the float cosine of the bipolar operands.
    np.testing.assert_allclose(result, queries_f @ clusters_f.T / D)

    # Memory shape: the packed operands are 64x smaller than float64.
    float_bytes = queries_f.nbytes + clusters_f.nbytes
    packed_bytes = packed_queries.nbytes + packed_clusters.nbytes
    ratio = float_bytes / packed_bytes
    table = render_table(
        [
            {
                "representation": "float64",
                "bytes": float_bytes,
                "relative": 1.0,
            },
            {
                "representation": "packed binary",
                "bytes": packed_bytes,
                "relative": 1.0 / ratio,
            },
        ],
        precision=4,
        title=f"Similarity-search operand footprint (k={K}, D={D}, "
        f"{N_QUERIES} queries)",
    )
    save_result("packed_binary_footprint", table)
    print("\n" + table)
    assert ratio == pytest.approx(64.0, rel=0.02)
