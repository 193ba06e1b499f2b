"""Property tests: CompiledPlan.predict is equivalent to the model path.

The ISSUE-2 acceptance contract: across every ``ClusterQuant`` ×
``PredictQuant`` combination, tile sizes that do not divide the batch,
and ``n_workers`` ∈ {1, 4}, the compiled plan reproduces
``MultiModelRegHD.predict`` to float tolerance — and the packed
similarity scores reproduce the float sign-matmul scores *exactly*.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MultiModelRegHD, RegHDConfig
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant
from repro.runtime.packing import pack_sign_words, packed_sign_products
from repro.runtime import Query

CONV = ConvergencePolicy(max_epochs=2, patience=2)

ALL_COMBOS = [
    (cq, pq) for cq in ClusterQuant for pq in PredictQuant
]


def _fitted(cq, pq, seed, dim=64):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 4))
    y = np.sin(X[:, 0]) + X[:, 1]
    cfg = RegHDConfig(
        dim=dim,
        n_models=3,
        seed=seed,
        convergence=CONV,
        cluster_quant=cq,
        predict_quant=pq,
    )
    return MultiModelRegHD(4, cfg).fit(X, y)


class TestPlanModelEquivalence:
    @pytest.mark.parametrize("cq,pq", ALL_COMBOS)
    @given(
        seed=st.integers(min_value=0, max_value=3),
        n_rows=st.integers(min_value=1, max_value=50),
        tile_rows=st.integers(min_value=1, max_value=70),
        n_workers=st.sampled_from([1, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_predictions_match(self, cq, pq, seed, n_rows, tile_rows, n_workers):
        model = _fitted(cq, pq, seed)
        X = np.random.default_rng(seed + 100).normal(size=(n_rows, 4))
        plan = model.compile(tile_rows=tile_rows, n_workers=n_workers)
        np.testing.assert_allclose(
            plan.predict(X),
            model.predict(X),
            rtol=1e-9,
            atol=1e-10,
        )

    @pytest.mark.parametrize("cq,pq", ALL_COMBOS)
    def test_unpacked_backend_matches_too(self, cq, pq):
        model = _fitted(cq, pq, seed=1)
        X = np.random.default_rng(7).normal(size=(23, 4))
        plan = model.compile(backend="dense", tile_rows=10)
        np.testing.assert_allclose(
            plan.predict(X), model.predict(X), rtol=1e-9, atol=1e-10
        )


class TestPackedSimilarityExactness:
    """The packed Hamming search must be bit-exact with the float path."""

    @given(
        seed=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=9),
        dim=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_sign_products_exact(self, seed, n, k, dim):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, dim))
        B = rng.normal(size=(k, dim))
        signs_a = np.where(A >= 0, 1.0, -1.0)
        signs_b = np.where(B >= 0, 1.0, -1.0)
        expected = signs_a @ signs_b.T
        got = packed_sign_products(
            pack_sign_words(A), pack_sign_words(B), dim
        )
        np.testing.assert_array_equal(got, expected)
        # and so are the normalised similarity scores the engine uses
        np.testing.assert_array_equal(
            got / float(dim), expected / float(dim)
        )

    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_plan_similarity_scores_exact(self, seed):
        """Quantised cluster similarities are identical packed vs float."""
        model = _fitted(
            ClusterQuant.FRAMEWORK, PredictQuant.BINARY_BOTH, seed
        )
        S = np.random.default_rng(seed + 500).normal(size=(17, model.dim))
        float_sims = model._cluster_similarities(Query(S))
        words = pack_sign_words(S)
        cluster_words = pack_sign_words(model.clusters.view(binary=True))
        packed_sims = packed_sign_products(
            words, cluster_words, model.dim
        ) / float(model.dim)
        np.testing.assert_array_equal(packed_sims, float_sims)
