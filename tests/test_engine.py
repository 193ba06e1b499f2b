"""Tests for the compiled inference engine (repro.engine)."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    CompiledPlan,
    MultiModelRegHD,
    RegHDConfig,
    SingleModelRegHD,
    compile_model,
)
from repro.core import ClusterQuant, ConvergencePolicy, PredictQuant
from repro.engine import auto_tile_rows
from repro.engine.kernels import TileScratch
from repro.exceptions import (
    ConfigurationError,
    EncodingError,
    NotFittedError,
)
from repro.reliability import ResilientStreamingRegHD
from repro.runtime.base import BACKEND_ENV_VAR
from repro.streaming import StreamingRegHD

CONV = ConvergencePolicy(max_epochs=3, patience=2)


def _task(seed=0, n=120, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = np.sin(X[:, 0]) + X[:, 1]
    return X, y


def _fitted(cq=ClusterQuant.FRAMEWORK, pq=PredictQuant.BINARY_BOTH, dim=128):
    X, y = _task()
    cfg = RegHDConfig(
        dim=dim,
        n_models=4,
        seed=0,
        convergence=CONV,
        cluster_quant=cq,
        predict_quant=pq,
    )
    return MultiModelRegHD(5, cfg).fit(X, y)


@pytest.fixture
def auto_backend(monkeypatch):
    """Clear the process-wide backend default so ``compile()`` picks the
    backend from the quantisation config, as these tests assert."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


class TestCompile:
    def test_unfitted_raises(self):
        model = MultiModelRegHD(5, RegHDConfig(dim=64, n_models=2))
        with pytest.raises(NotFittedError):
            compile_model(model)

    def test_rejects_other_model_types(self):
        X, y = _task()
        single = SingleModelRegHD(5, dim=64, convergence=CONV).fit(X, y)
        with pytest.raises(ConfigurationError):
            compile_model(single)

    def test_knob_validation(self):
        model = _fitted()
        for tile_rows in (0, -3):
            with pytest.raises(ConfigurationError):
                model.compile(tile_rows=tile_rows)
        for n_workers in (0, -2):
            with pytest.raises(ConfigurationError):
                model.compile(n_workers=n_workers)

    @pytest.mark.usefixtures("auto_backend")
    def test_auto_packing_follows_quantisation(self):
        assert _fitted().compile().packed
        assert not _fitted(
            ClusterQuant.NONE, PredictQuant.FULL
        ).compile().packed

    @pytest.mark.usefixtures("auto_backend")
    def test_operands_are_read_only(self):
        plan = _fitted().compile()
        ops = (plan.cluster_op.words, plan.model_op.words, plan.model_op.scales)
        for arr in ops:
            assert arr is not None
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_plan_is_frozen_against_further_training(self):
        model = _fitted()
        plan = model.compile()
        X, y = _task(seed=3)
        before = plan.predict(X)
        model.partial_fit(X, y)  # mutates the model, not the plan
        np.testing.assert_array_equal(plan.predict(X), before)
        assert not np.allclose(model.predict(X), before)

    @pytest.mark.usefixtures("auto_backend")
    def test_repr_and_nbytes(self):
        plan = _fitted().compile()
        assert "packed-sims" in repr(plan) and "packed-dots" in repr(plan)
        assert plan.nbytes > 0
        # Packed cluster operands are 64x smaller than their float form.
        assert plan.cluster_op.words.nbytes * 8 <= plan.dim * plan.n_models

    def test_auto_tile_rows_bounds(self):
        assert auto_tile_rows(10) == 4096
        assert auto_tile_rows(10_000_000) == 64
        assert 64 <= auto_tile_rows(4000) <= 4096


class TestPredict:
    def test_matches_model_all_backends(self):
        model = _fitted()
        X, _ = _task(seed=1, n=67)
        ref = model.predict(X)
        for backend in ("packed_v2", "dense"):
            plan = model.compile(backend=backend)
            np.testing.assert_allclose(
                plan.predict(X), ref, rtol=1e-9, atol=1e-10
            )

    def test_tiling_is_invisible(self):
        """Tile sizes that do not divide the batch change nothing.

        BLAS picks shape-dependent kernels, so the encode matmul can
        differ by an ulp between tile heights — hence allclose, not
        array_equal (threading with a fixed tile size IS bit-exact).
        """
        model = _fitted()
        X, _ = _task(seed=2, n=101)
        whole = model.compile(tile_rows=101).predict(X)
        for tile_rows in (1, 7, 32, 100, 500):
            np.testing.assert_allclose(
                model.compile(tile_rows=tile_rows).predict(X),
                whole,
                rtol=1e-12,
            )

    def test_threading_is_invisible(self):
        model = _fitted()
        X, _ = _task(seed=4, n=90)
        single = model.compile(tile_rows=16, n_workers=1).predict(X)
        threaded = model.compile(tile_rows=16, n_workers=4).predict(X)
        np.testing.assert_array_equal(single, threaded)

    def test_empty_batch(self):
        plan = _fitted().compile()
        out = plan.predict(np.empty((0, 5)))
        assert out.shape == (0,)

    def test_feature_mismatch_raises(self):
        plan = _fitted().compile()
        with pytest.raises(EncodingError):
            plan.predict(np.zeros((3, 4)))

    def test_custom_encoder_fallback(self):
        """Non-NonlinearEncoder models fall back to encode_batch."""
        from repro.encoding.projection import RandomProjectionEncoder

        X, y = _task()
        enc = RandomProjectionEncoder(5, 128, seed=0)
        model = MultiModelRegHD(
            5,
            RegHDConfig(dim=128, n_models=4, seed=0, convergence=CONV),
            encoder=enc,
        ).fit(X, y)
        plan = model.compile(tile_rows=33)
        assert plan.encoder is enc and plan.enc_bases is None
        np.testing.assert_allclose(
            plan.predict(X), model.predict(X), rtol=1e-9, atol=1e-10
        )


class TestTileScratch:
    def test_footprint_is_bounded_by_tile(self):
        scratch = TileScratch(64, 1000)
        # two float64 buffers + one bool buffer
        assert scratch.nbytes == 64 * 1000 * (8 + 8 + 1)

    @pytest.mark.parametrize("rows", [1, 8])
    def test_short_fused_tile_is_one_small_block(self, rows):
        """Point queries and small batches at D=4096 encode in one
        4096-column block, and their scratch stays under 1 MiB."""
        scratch = TileScratch(rows, 4096, fused=True)
        assert scratch.fused.block_cols == 4096
        assert scratch.nbytes < 1 << 20

    def test_tall_fused_tile_footprint_is_unchanged(self):
        """Tall fused tiles keep 1024-column slabs: 1404 rows × (two
        float64 and one bool slab of 1024 columns, 64 words, two
        accumulators) — the footprint behind the serving peak RSS."""
        rows = auto_tile_rows(4096, fused=True)
        assert rows == 1404
        scratch = TileScratch(rows, 4096, fused=True)
        assert scratch.nbytes == 25_182_144


class TestConcurrentCallers:
    @pytest.mark.parametrize(
        "backend",
        ["packed_v2", "dense"],
        ids=["fused", "float"],
    )
    def test_interleaved_calls_match_solo_calls(self, backend):
        """Four threads interleave 1-, 8- and 300-row predicts on one plan
        (the fused packed_v2 plan, then a float plan); every result equals
        the same call made alone, so concurrent callers never share
        scratch buffers."""
        plan = _fitted(dim=4096).compile(backend=backend)
        assert plan.fused_encode is (backend == "packed_v2")
        rng = np.random.default_rng(11)
        sizes = [1, 8] * 8 + [300, 300]
        batches = [rng.normal(size=(n, 5)) for n in sizes]
        solo = [plan.predict(X) for X in batches]
        start = threading.Barrier(4, timeout=30)

        def client(c: int) -> list[int]:
            start.wait()
            mismatched = []
            for i in np.roll(np.arange(len(batches)), -5 * c):
                if not np.array_equal(plan.predict(batches[i]), solo[i]):
                    mismatched.append(int(i))
            return mismatched

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                mismatched = list(pool.map(client, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert mismatched == [[], [], [], []]


class TestConcurrentStreamReaders:
    @pytest.mark.parametrize(
        "cq,pq",
        [
            (ClusterQuant.FRAMEWORK, PredictQuant.BINARY_BOTH),
            (ClusterQuant.NONE, PredictQuant.FULL),
        ],
        ids=["framework-binary_both", "none-full"],
    )
    def test_readers_see_only_committed_model_states(self, cq, pq):
        """Three threads predict through the stream while a writer streams
        updates into it.  Every reader output bit-equals the output of a
        plan compiled from some committed model state: a reader never
        sees a plan torn between two updates."""
        n_updates, rows = 60, 16
        rng = np.random.default_rng(5)
        X = rng.normal(size=((n_updates + 2) * rows, 5))
        y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2]
        P = rng.normal(size=(8, 5))
        stream = StreamingRegHD(
            5,
            RegHDConfig(
                dim=256, n_models=4, seed=0, cluster_quant=cq, predict_quant=pq
            ),
        )
        stream.update(X[: 2 * rows], y[: 2 * rows])
        stream.predict(P)  # compiles the serving plan
        committed = {stream.model.compile().predict(P).tobytes()}
        done = threading.Event()
        start = threading.Barrier(4, timeout=30)

        def reader() -> list[bytes]:
            start.wait()
            seen = []
            while not done.is_set():
                seen.append(stream.predict(P).tobytes())
            return seen

        def writer() -> None:
            start.wait()
            try:
                for i in range(2, n_updates + 2):
                    lo = i * rows
                    stream.update(X[lo : lo + rows], y[lo : lo + rows])
                    committed.add(stream.model.compile().predict(P).tobytes())
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                readers = [pool.submit(reader) for _ in range(3)]
                pool.submit(writer).result(timeout=120)
                outputs = [out for r in readers for out in r.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert len(committed) > n_updates // 2  # the model kept moving
        torn = sum(out not in committed for out in outputs)
        assert torn == 0, f"{torn} of {len(outputs)} reader outputs torn"


class TestPlanRefresh:
    def test_refresh_tracks_further_training(self):
        model = _fitted()
        plan = model.compile()
        X, y = _task(seed=3)
        model.partial_fit(X, y)
        plan = plan.refresh(model)
        np.testing.assert_allclose(
            plan.predict(X), model.predict(X), rtol=1e-9, atol=1e-10
        )

    @pytest.mark.parametrize(
        "cq,pq",
        [
            (ClusterQuant.FRAMEWORK, PredictQuant.BINARY_BOTH),
            (ClusterQuant.NONE, PredictQuant.FULL),
        ],
        ids=["binary", "full"],
    )
    @pytest.mark.parametrize("backend", ["packed_v2", "dense"])
    def test_refresh_returns_new_plan_and_leaves_old_one(
        self, cq, pq, backend
    ):
        """A refresh is a new value: the old plan still serves the model
        as compiled, the new one serves the trained model."""
        model = _fitted(cq, pq)
        old = model.compile(backend=backend)
        X, y = _task(seed=3)
        before = old.predict(X)
        model.partial_fit(X, y)
        new = old.refresh(model)
        assert new is not old
        np.testing.assert_array_equal(old.predict(X), before)
        np.testing.assert_allclose(
            new.predict(X), model.predict(X), rtol=1e-9, atol=1e-10
        )
        assert old.refresh_stats == new.refresh_stats  # one lineage

    @pytest.mark.parametrize(
        "cq,pq",
        [
            (ClusterQuant.FRAMEWORK, PredictQuant.BINARY_BOTH),
            (ClusterQuant.FRAMEWORK, PredictQuant.BINARY_QUERY),
            (ClusterQuant.NONE, PredictQuant.FULL),
        ],
        ids=["binary", "binary-query", "full"],
    )
    @pytest.mark.parametrize("backend", ["packed_v2", "dense"])
    def test_refresh_without_change_shares_every_array(self, cq, pq, backend):
        model = _fitted(cq, pq)
        plan = model.compile(backend=backend)
        same = plan.refresh(model)
        old_arrays = plan.cluster_op.arrays + plan.model_op.arrays
        new_arrays = same.cluster_op.arrays + same.model_op.arrays
        assert len(old_arrays) == len(new_arrays) > 0
        assert all(a is b for a, b in zip(old_arrays, new_arrays))

    def test_refresh_without_change_touches_nothing(self):
        model = _fitted()
        plan = model.compile()
        plan.refresh(model)
        stats = plan.refresh_stats
        assert stats["refreshes"] == 1
        assert stats["rows_refreshed"] == 0 and stats["rows_reused"] > 0

    @pytest.mark.usefixtures("auto_backend")
    def test_decay_only_update_repacks_no_model_words(self):
        """Pure magnitude decay keeps every sign, so no word re-packs."""
        model = _fitted()
        plan = model.compile()
        before = plan.refresh_stats
        model.models.update_all(-0.5 * model.models.integer)
        model.models.rebinarize()
        new = plan.refresh(model)
        after = new.refresh_stats
        # model words: sign patterns unchanged => zero rows re-packed and
        # the words shared; cluster operands untouched entirely.
        assert after["rows_refreshed"] == before["rows_refreshed"]
        assert new.model_op.words is plan.model_op.words
        assert new.cluster_op.words is plan.cluster_op.words
        # the decayed scales still reach the new plan, not the old one
        np.testing.assert_allclose(new.model_op.scales, model.models.scales)
        assert not np.allclose(plan.model_op.scales, model.models.scales)

    @pytest.mark.usefixtures("auto_backend")
    def test_stream_refresh_counts(self):
        """A seeded stream session at D=4096 re-packs only the operand rows
        whose signs moved: 189 of the 256 rows its 16 updates offer."""
        rng = np.random.default_rng(7)
        stream = StreamingRegHD(
            16,
            RegHDConfig(
                dim=4096,
                n_models=8,
                seed=0,
                cluster_quant=ClusterQuant.FRAMEWORK,
                predict_quant=PredictQuant.BINARY_BOTH,
            ),
        )
        X = rng.normal(size=(64, 16))
        stream.update(X, np.sin(X[:, 0]))
        stream.predict(rng.normal(size=(8, 16)))  # compiles the plan
        for _ in range(16):
            X = rng.normal(size=(16, 16))
            stream.update(X, np.sin(X[:, 0]))
            stream.predict(rng.normal(size=(8, 16)))
        assert stream._plan.refresh_stats == {
            "compiles": 1,
            "rows_snapshotted": 16,
            "refreshes": 16,
            "rows_refreshed": 189,
            "rows_reused": 67,
        }

    def test_refresh_rejects_foreign_model(self):
        plan = _fitted().compile()
        other = _fitted(dim=128)
        with pytest.raises(ConfigurationError):
            plan.refresh(other)

    def test_compile_backend_name_selects_kernels(self):
        model = _fitted()
        dense = model.compile(backend="dense")
        packed = model.compile(backend="packed_v2")
        assert not dense.packed and packed.packed
        assert dense.backend_name == "dense"
        assert packed.backend_name == "packed_v2"
        X, _ = _task(seed=5, n=41)
        np.testing.assert_allclose(
            dense.predict(X), packed.predict(X), rtol=1e-9, atol=1e-10
        )


class TestServingIntegration:
    def test_streaming_predict_reuses_refreshed_plan(self):
        X, y = _task(n=96)
        stream = StreamingRegHD(
            5, RegHDConfig(dim=128, n_models=4, seed=0)
        )
        stream.update(X[:48], y[:48])
        first = stream.predict(X[48:])
        assert isinstance(stream._plan, CompiledPlan)
        np.testing.assert_allclose(
            first, stream.model.predict(X[48:]), rtol=1e-9, atol=1e-10
        )
        plan_before = stream._plan
        stream.update(X[48:], y[48:])
        # the update swapped in a refreshed plan and left the old one as
        # it was
        refreshed = stream._plan
        assert refreshed is not plan_before
        assert refreshed.refresh_stats["refreshes"] == 1
        np.testing.assert_array_equal(plan_before.predict(X[48:]), first)
        second = stream.predict(X[:48])
        assert stream._plan is refreshed  # predict only reads the plan
        np.testing.assert_allclose(
            second, stream.model.predict(X[:48]), rtol=1e-9, atol=1e-10
        )

    def test_resilient_restore_refreshes_plan(self, tmp_path):
        X, y = _task(n=128)
        stream = ResilientStreamingRegHD(
            5,
            RegHDConfig(dim=128, n_models=4, seed=0),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        stream.update(X[:64], y[:64])
        stream.predict(X[64:])
        assert stream._plan is not None
        stream.update(X[64:], y[64:])
        served = stream._plan
        assert stream._rollback()  # restores the checkpointed weights
        assert stream._plan is not served
        assert stream._plan.refresh_stats["refreshes"] == 2
        np.testing.assert_allclose(
            stream.predict(X[:64]),
            stream.model.predict(X[:64]),
            rtol=1e-9,
            atol=1e-10,
        )
