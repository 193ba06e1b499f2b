"""Frozen reference computations that measure the host's speed.

The benchmark's host is a few vCPUs of a shared machine, and its speed
changes in phases: for stretches of seconds to minutes every kind of code
runs up to 1.9 times slower, and a whole run can fall in one such
stretch.  So each workload follows every block of requests with a
*reference block*: the same kind of work done by the fixed numpy code in
this module, which does not depend on the library and never changes with
it.  A block's time over its reference block's time is the code's cost
with the host's speed cancelled.  Over ten runs in which the raw median
latency of 1-row predicts ranged over 0.252-0.378 ms, the scaled ratio
to :class:`ReferencePredict` ranged over 0.254-0.268 ms.

The reference mirrors what the serving and learning paths do, so the two
slow down alike: the fused single-trig encode, sign packing and
XOR-popcount search of a binary-query predict, and the dense encode, dot
products, model step, re-binarisation and file save of a labelled
update.  It is not the library's algorithm and its outputs are not used.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

#: column block of the reference's fused encode
BLOCK_COLS = 1024


class Operands:
    """Random encoder and model operands of a given shape, the same in
    every run."""

    def __init__(self, n_features: int, dim: int, n_models: int):
        rng = np.random.default_rng(99)
        self.dim = dim
        self.bases = rng.normal(size=(n_features, dim))
        self.phases = rng.uniform(0.0, 2.0 * np.pi, dim)
        self.sin_phases = np.sin(self.phases)
        self.scale = 1.0 / np.sqrt(n_features)
        words = dim // 64
        self.cluster_words = rng.integers(0, 2**63, (n_models, words), np.uint64)
        self.model_words = rng.integers(0, 2**63, (n_models, words), np.uint64)
        self.model_scales = rng.uniform(0.5, 1.0, n_models)
        self.models = rng.normal(size=(n_models, dim))
        self.clusters = rng.normal(size=(n_models, dim))


class ReferencePredict:
    """Binary-query predict of ``rows`` rows: a fused encode→pack over
    column blocks, then XOR-popcount cluster search and model dots."""

    def __init__(self, ops: Operands, rows: int):
        self.ops = ops
        self.proj = np.empty((rows, BLOCK_COLS))
        self.work = np.empty((rows, BLOCK_COLS))
        self.bits = np.empty((rows, BLOCK_COLS), dtype=np.bool_)
        self.words = np.empty((rows, ops.dim // 64), dtype=np.uint64)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        ops, pb, tb = self.ops, self.proj, self.work
        words_u8 = self.words.view(np.uint8)
        sumsq = np.zeros(len(X))
        sumabs = np.zeros(len(X))
        for d0 in range(0, ops.dim, BLOCK_COLS):
            d1 = d0 + BLOCK_COLS
            np.dot(X, ops.bases[:, d0:d1], out=pb)
            np.multiply(pb, 2.0 * ops.scale, out=pb)
            np.add(pb, ops.phases[d0:d1], out=pb)
            np.sin(pb, out=pb)
            np.subtract(pb, ops.sin_phases[d0:d1], out=pb)
            np.multiply(pb, 0.5, out=pb)
            np.multiply(pb, pb, out=tb)
            sumsq += tb.sum(axis=1)
            np.abs(pb, out=tb)
            sumabs += tb.sum(axis=1)
            np.greater_equal(pb, 0, out=self.bits)
            words_u8[:, d0 // 8 : d1 // 8] = np.packbits(self.bits, axis=1)
        scales = sumabs / ops.dim / np.maximum(np.sqrt(sumsq), 1e-12)
        words = self.words[:, None, :]
        hamming = np.bitwise_count(words ^ ops.cluster_words).sum(axis=-1)
        sims = (ops.dim - 2.0 * hamming) / ops.dim
        conf = np.exp(10.0 * (sims - sims.max(axis=1, keepdims=True)))
        conf /= conf.sum(axis=1, keepdims=True)
        hamming = np.bitwise_count(words ^ ops.model_words).sum(axis=-1)
        dots = (ops.dim - 2.0 * hamming) * scales[:, None] * ops.model_scales
        return (conf * dots).sum(axis=1)


class ReferenceUpdate:
    """Labelled update of a batch: two dense encodes (predict, then learn),
    dense dots, a confidence-weighted model step, sign packing of the
    models, and an atomic save of the models to ``path``."""

    def __init__(self, ops: Operands, path: str):
        self.ops = ops
        self.path = path
        self.models = ops.models.copy()

    def _encode(self, X: np.ndarray) -> np.ndarray:
        ops = self.ops
        p = (X @ ops.bases) * ops.scale
        return np.cos(p + ops.phases) * np.sin(p)

    def _predict(self, X: np.ndarray) -> tuple[np.ndarray, ...]:
        H = self._encode(X)
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        sims = H @ self.ops.clusters.T
        conf = np.exp(10.0 * (sims - sims.max(axis=1, keepdims=True)))
        conf /= conf.sum(axis=1, keepdims=True)
        return H, conf, (conf * (H @ self.models.T)).sum(axis=1)

    def __call__(self, X: np.ndarray, y: np.ndarray) -> float:
        before = self._predict(X)[2]
        H, conf, pred = self._predict(X)
        err = y - pred
        self.models *= 0.997
        self.models += 1e-3 * (conf * err[:, None]).T @ H
        words = np.packbits(self.models >= 0, axis=1)
        tmp = self.path + ".tmp.npz"
        np.savez(tmp, models=self.models, words=words)
        with open(tmp, "rb") as fh:
            zlib.crc32(fh.read())
        os.replace(tmp, self.path)
        return float(np.mean((y - before) ** 2))
