"""An encoded batch costs one float64 ``(n, D)`` matrix from encode to
model update.

The bounds read ``tracemalloc``, which numpy reports every array
allocation to, so they hold on any machine whatever its C allocator or
BLAS keeps resident.  Each allows a small fixed amount beyond the named
matrices: the encoder's and the row norms' one-block scratch, a
mini-batch's sign buffer and its grouped cluster-update rows.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import ConvergencePolicy, RegHDConfig
from repro.core.multi import MultiModelRegHD
from repro.core.quantization import ClusterQuant, PredictQuant
from repro.encoding.nonlinear import NonlinearEncoder
from repro.registry import ENCODER_REGISTRY

MiB = 2**20
#: fixed allowance over the named matrices
ALLOWANCE = 3 * MiB


def _peak_bytes(fn) -> int:
    """Peak traced bytes allocated while ``fn`` runs, above its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _model(cluster_quant, predict_quant, dim, **extra):
    return MultiModelRegHD(
        6,
        RegHDConfig(
            dim=dim,
            n_models=8,
            seed=0,
            backend="dense",
            cluster_quant=cluster_quant,
            predict_quant=predict_quant,
            **extra,
        ),
    )


def _rows(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    return X, np.sin(X[:, 0]) + 0.5 * X[:, 1]


class TestPartialFitPeak:
    def test_quantised_partial_fit_costs_its_query(self):
        """A 256-row dense FRAMEWORK/BINARY_BOTH ``partial_fit`` at
        D=4096: its 8 MiB query plus the allowance (it peaked at
        16-17 MiB when encode, normalisation and each mini-batch held
        float copies beside the query)."""
        rows, dim = 256, 4096
        X, y = _rows(2 * rows)
        model = _model(ClusterQuant.FRAMEWORK, PredictQuant.BINARY_BOTH, dim)
        model.partial_fit(X[:rows], y[:rows])  # first call: scaler, warm-up
        peak = _peak_bytes(lambda: model.partial_fit(X[rows:], y[rows:]))
        assert peak <= rows * dim * 8 + ALLOWANCE, peak / MiB


class TestFitPeak:
    n_train, n_val, dim = 600, 200, 2048

    def _fit_peak(self, cluster_quant, predict_quant) -> int:
        X, y = _rows(self.n_train + self.n_val)
        model = _model(
            cluster_quant,
            predict_quant,
            self.dim,
            convergence=ConvergencePolicy(max_epochs=3, min_epochs=3),
        )
        n = self.n_train
        peak = _peak_bytes(
            lambda: model.fit(X[:n], y[:n], X_val=X[n:], y_val=y[n:])
        )
        assert model.history_.n_epochs == 3
        return peak

    def test_binary_query_fit_adds_one_evaluation_matrix(self):
        """The training and validation queries, plus one ``(n_train, D)``
        matrix the per-epoch evaluations build their binarised rows in."""
        row = self.dim * 8
        bound = (2 * self.n_train + self.n_val) * row + ALLOWANCE
        peak = self._fit_peak(ClusterQuant.FRAMEWORK, PredictQuant.BINARY_BOTH)
        assert peak <= bound, peak / MiB

    def test_full_precision_fit_costs_its_queries(self):
        bound = (self.n_train + self.n_val) * self.dim * 8 + ALLOWANCE
        peak = self._fit_peak(ClusterQuant.NONE, PredictQuant.FULL)
        assert peak <= bound, peak / MiB


@pytest.mark.parametrize("name", sorted(ENCODER_REGISTRY))
def test_encode_batch_returns_an_array_the_caller_owns(name):
    """Estimators normalise ``encode_batch``'s output in place, so every
    registered encoder returns a new writable float64 array: it shares
    no memory with another call's output or with the encoder's state."""
    encoder = ENCODER_REGISTRY[name](5, 64, 0)
    X = np.random.default_rng(0).normal(size=(7, 5))
    first, second = encoder.encode_batch(X), encoder.encode_batch(X)
    _, arrays = encoder.get_state()
    for out in (first, second):
        assert out.dtype == np.float64 and out.flags.writeable
        for array in arrays.values():
            assert not np.shares_memory(out, array)
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)


def test_output_off_the_contract_is_copied_not_written():
    """An encoder whose output the caller may not write (read-only, or
    not float64) is normalised on a copy, so its arrays stay intact."""
    kept = []

    class Sharing(NonlinearEncoder):
        def _encode_batch(self, X):
            out = super()._encode_batch(X)
            out.flags.writeable = False
            kept.append(out)
            return out

    X = np.random.default_rng(1).normal(size=(4, 5))
    model = MultiModelRegHD(5, dim=64, seed=0, encoder=Sharing(5, 64, 0))
    S = model._encode_normalized(X)
    np.testing.assert_array_equal(kept[0], NonlinearEncoder(5, 64, 0).encode_batch(X))
    np.testing.assert_allclose(np.linalg.norm(S, axis=1), 1.0)
