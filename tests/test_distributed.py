"""Tests for shard map-reduce training (repro.distributed).

The load-bearing guarantees:

* 1-shard map-reduce replays sequential ``partial_fit`` bit-for-bit
  (singleton merge is an exact copy);
* inline (``n_workers=0``) and process-pool (``n_workers>0``) execution
  produce identical bits for any shard count;
* the reduction is ordered by shard id, so merge bits cannot depend on
  worker scheduling;
* ``absorb_delta`` swaps in a refreshed serving plan that re-packs no
  operand row the merge left untouched.
"""

import numpy as np
import pytest

from repro.core import (
    ClusterQuant,
    MultiModelRegHD,
    PredictQuant,
    RegHDConfig,
    SingleModelRegHD,
)
from repro.distributed import (
    DeltaCoordinator,
    ShardTrainer,
    shard_indices,
    train_sharded,
)
from repro.exceptions import ConfigurationError
from repro.reliability.resilient import ResilientStreamingRegHD
from repro.streaming import StreamingRegHD


def _data(n=200, features=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, features))
    y = X @ rng.normal(size=features) + 0.1 * rng.normal(size=n)
    return X, y


# -- sharding ----------------------------------------------------------------


def test_shard_indices_contiguous_and_exhaustive():
    parts = shard_indices(10, 3)
    assert [p.tolist() for p in parts] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    np.testing.assert_array_equal(np.concatenate(parts), np.arange(10))


def test_shard_indices_tolerates_more_shards_than_rows():
    parts = shard_indices(2, 4)
    assert len(parts) == 4
    assert sum(len(p) for p in parts) == 2


def test_shard_indices_rejects_bad_count():
    with pytest.raises(ConfigurationError):
        shard_indices(10, 0)


# -- constructor validation --------------------------------------------------


def test_trainer_rejects_models_without_partial_fit():
    class NoPartial:
        supports_partial_fit = False

    with pytest.raises(ConfigurationError, match="partial_fit"):
        ShardTrainer(NoPartial(), n_shards=2)


@pytest.mark.parametrize(
    "kwargs",
    [{"n_shards": 0}, {"n_shards": 2, "n_workers": -1},
     {"n_shards": 2, "batch_rows": 0}],
)
def test_trainer_rejects_bad_parameters(kwargs):
    model = SingleModelRegHD(3, dim=32, seed=0)
    with pytest.raises(ConfigurationError):
        ShardTrainer(model, **kwargs)


def test_train_sharded_rejects_bad_rounds():
    model = SingleModelRegHD(3, dim=32, seed=0)
    with pytest.raises(ConfigurationError):
        train_sharded(model, *_data(20), n_shards=2, rounds=0)


# -- parity: 1-shard replays the sequential stream ---------------------------


def test_one_shard_single_model_is_bitexact_vs_sequential():
    X, y = _data()
    batch = 32
    seq = SingleModelRegHD(5, dim=512, seed=0)
    for lo in range(0, len(y), batch):
        seq.partial_fit(X[lo : lo + batch], y[lo : lo + batch])

    sharded = SingleModelRegHD(5, dim=512, seed=0)
    ShardTrainer(sharded, n_shards=1, batch_rows=batch).train(X, y)

    np.testing.assert_array_equal(sharded.model, seq.model)
    assert sharded.scaler.get_state() == seq.scaler.get_state()
    np.testing.assert_array_equal(sharded.predict(X[:7]), seq.predict(X[:7]))


def test_one_shard_multi_model_replays_sequential():
    """The 1-shard clustered replay is exact up to summation order: the
    recorder accumulates batch sums while the live path scatters per
    sample, so bits may differ in the last ulp — the acceptance bound
    is 1e-9 and the observed drift is ~1e-15."""
    X, y = _data()
    batch = 32
    config = RegHDConfig(dim=256, n_models=4, seed=0)
    seq = MultiModelRegHD(5, config)
    for lo in range(0, len(y), batch):
        seq.partial_fit(X[lo : lo + batch], y[lo : lo + batch])

    sharded = MultiModelRegHD(5, config)
    ShardTrainer(sharded, n_shards=1, batch_rows=batch).train(X, y)

    np.testing.assert_allclose(
        sharded.models.integer, seq.models.integer, rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        sharded.clusters.integer, seq.clusters.integer, rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        sharded.predict(X[:7]), seq.predict(X[:7]), rtol=1e-9
    )


# -- parity: worker processes change nothing ---------------------------------


def test_process_pool_matches_inline_bit_for_bit():
    X, y = _data()
    config = RegHDConfig(dim=256, n_models=4, seed=0)
    inline = MultiModelRegHD(5, config)
    ShardTrainer(inline, n_shards=2, n_workers=0, batch_rows=32).train(X, y)

    pooled = MultiModelRegHD(5, config)
    ShardTrainer(pooled, n_shards=2, n_workers=2, batch_rows=32).train(X, y)

    np.testing.assert_array_equal(pooled.models.integer, inline.models.integer)
    np.testing.assert_array_equal(
        pooled.clusters.integer, inline.clusters.integer
    )


def test_merge_is_scheduling_independent():
    """Reducing a shuffled delta list after re-sorting by shard id gives
    the same bits — the trainer sorts, so completion order is moot."""
    X, y = _data()
    model = SingleModelRegHD(5, dim=256, seed=0)
    trainer = ShardTrainer(model, n_shards=4, batch_rows=25)
    deltas = trainer.map(X, y)
    merged = trainer.reduce(deltas)
    # Simulate out-of-order completion, then the trainer's ordered sort.
    order = {id(d): i for i, d in enumerate(deltas)}
    reordered = [deltas[i] for i in (2, 0, 3, 1)]
    reordered.sort(key=lambda d: order[id(d)])
    again = trainer.reduce(reordered)
    np.testing.assert_array_equal(
        merged.arrays["model_vector"], again.arrays["model_vector"]
    )


def test_empty_shards_are_merge_identities():
    X, y = _data(n=3)
    model = SingleModelRegHD(5, dim=128, seed=0)
    report = ShardTrainer(model, n_shards=8).train(X, y)
    assert len(report.shard_samples) == 8
    assert sum(report.shard_samples) == 3
    assert model.fitted


def test_round_report_accounting():
    X, y = _data()
    model = MultiModelRegHD(5, RegHDConfig(dim=128, n_models=2, seed=0))
    report = ShardTrainer(model, n_shards=3, batch_rows=16).train(X, y)
    assert report.n_shards == 3 and report.n_workers == 0
    assert sum(report.shard_samples) == len(y)
    assert report.shard_bytes > report.merged_bytes > 0
    assert report.merged is not None
    assert report.merged.n_samples == len(y)


def test_multiple_rounds_refine_the_merged_model():
    X, y = _data(n=400)
    config = RegHDConfig(dim=512, n_models=4, seed=0)
    one = MultiModelRegHD(5, config)
    train_sharded(one, X, y, n_shards=4, batch_rows=32, rounds=1)
    many = MultiModelRegHD(5, config)
    train_sharded(many, X, y, n_shards=4, batch_rows=32, rounds=5)
    mse_one = float(np.mean((one.predict(X) - y) ** 2))
    mse_many = float(np.mean((many.predict(X) - y) ** 2))
    assert mse_many < mse_one


# -- coordinator -------------------------------------------------------------


def test_coordinator_rounds_are_prequential():
    X, y = _data(n=300)
    stream = StreamingRegHD(5, RegHDConfig(dim=256, n_models=4, seed=0))
    coord = DeltaCoordinator(stream, n_shards=2, batch_rows=25)
    first = coord.round(X[:100], y[:100])
    assert first.prequential_mse is None  # nothing to predict with yet
    second = coord.round(X[100:200], y[100:200])
    assert second.prequential_mse is not None
    third = coord.round(X[200:], y[200:])
    assert coord.n_rounds == 3
    curve = coord.mse_curve()
    assert np.isnan(curve[0]) and np.all(np.isfinite(curve[1:]))
    assert third.merged_bytes > 0 and sum(third.shard_samples) == 100


def test_coordinator_checkpoints_every_n_rounds(tmp_path):
    X, y = _data(n=300)
    stream = ResilientStreamingRegHD(
        5,
        RegHDConfig(dim=128, n_models=2, seed=0),
        checkpoint_dir=tmp_path,
    )
    coord = DeltaCoordinator(stream, n_shards=2, checkpoint_every=2)
    flags = [coord.round(X[i : i + 100], y[i : i + 100]).checkpointed
             for i in range(0, 300, 100)]
    assert flags == [False, True, False]
    assert stream.checkpoints.latest_valid() is not None


def test_coordinator_validates_checkpoint_configuration():
    stream = StreamingRegHD(5, RegHDConfig(dim=64, n_models=2, seed=0))
    with pytest.raises(ConfigurationError, match="checkpoint"):
        DeltaCoordinator(stream, n_shards=2, checkpoint_every=0)
    with pytest.raises(ConfigurationError, match="checkpoint"):
        # Plain StreamingRegHD has no checkpoint() method.
        DeltaCoordinator(stream, n_shards=2, checkpoint_every=1)


# -- plan refresh on absorb --------------------------------------------------


def test_absorb_delta_refreshes_only_touched_rows():
    X, y = _data(n=200, features=5)
    stream = StreamingRegHD(
        5,
        RegHDConfig(
            dim=256,
            n_models=8,
            seed=0,
            cluster_quant=ClusterQuant.FRAMEWORK,
            predict_quant=PredictQuant.BINARY_BOTH,
            backend="packed_v2",
        ),
    )
    trainer = ShardTrainer(stream.model, n_shards=2, batch_rows=25)

    # Round 1 trains broadly; predicting afterwards compiles the plan.
    stream.absorb_delta(trainer.reduce(trainer.map(X, y)))
    stream.predict(X[:4])
    old = stream._plan
    before = dict(old.refresh_stats)

    # A 2-row super-batch touches at most 2 of the 8 cluster centres
    # (each sample moves only its own cluster); the model hypervectors
    # all move (the LMS step is confidence-weighted across models).
    merged = trainer.reduce(trainer.map(X[:2], y[:2]))
    touched = np.any(merged.arrays["clusters_integer"] != 0.0, axis=1)
    assert 0 < touched.sum() <= 2
    stream.absorb_delta(merged)

    # absorb_delta swapped in a refreshed plan that re-packed no
    # untouched centre: their words carry over and their rows count as
    # reused.
    new = stream._plan
    assert new is not old
    after = dict(new.refresh_stats)
    assert after["refreshes"] == before["refreshes"] + 1
    refreshed = after["rows_refreshed"] - before["rows_refreshed"]
    reused = after["rows_reused"] - before["rows_reused"]
    assert refreshed + reused == 16
    assert reused >= 8 - touched.sum()
    np.testing.assert_array_equal(
        new.cluster_op.words[~touched], old.cluster_op.words[~touched]
    )

    # And the refreshed plan serves the post-merge model's predictions.
    np.testing.assert_allclose(
        stream.predict(X[:4]), stream.model.predict(X[:4])
    )


def test_absorb_delta_without_plan_compiles_nothing():
    X, y = _data(n=60)
    stream = StreamingRegHD(5, RegHDConfig(dim=128, n_models=2, seed=0))
    trainer = ShardTrainer(stream.model, n_shards=2)
    stream.absorb_delta(trainer.reduce(trainer.map(X, y)))
    assert stream._plan is None
    assert np.all(np.isfinite(stream.predict(X[:3])))
    assert stream._plan is not None


# -- telemetry ---------------------------------------------------------------


def test_distributed_metric_family_records_round_trips():
    from repro import telemetry

    X, y = _data(n=100)
    reg = telemetry.enable()
    try:
        stream = StreamingRegHD(5, RegHDConfig(dim=128, n_models=2, seed=0))
        coord = DeltaCoordinator(stream, n_shards=2, batch_rows=25)
        coord.round(X, y)
    finally:
        telemetry.disable()
    assert reg.counter(
        "reghd_distributed_shards_total", mode="inline"
    ).value == 2
    assert reg.counter("reghd_distributed_samples_total").value == 100
    assert reg.counter(
        "reghd_distributed_delta_bytes_total", direction="shard"
    ).value > 0
    assert reg.counter(
        "reghd_distributed_delta_bytes_total", direction="merged"
    ).value > 0
    assert reg.counter("reghd_distributed_absorbs_total").value == 1
    # Spans nest under the coordinator: the map/reduce paths carry the
    # distributed/coordinate prefix.
    paths = {
        dict(m.labels)["span"]
        for m in reg.metrics()
        if m.name == "reghd_span_seconds"
    }
    assert "distributed/coordinate" in paths
    assert any(p.endswith("distributed/map") for p in paths)
    assert any(p.endswith("distributed/reduce") for p in paths)


def test_trainer_round_counter_increments():
    from repro import telemetry

    X, y = _data(n=60)
    reg = telemetry.enable()
    try:
        model = SingleModelRegHD(5, dim=128, seed=0)
        ShardTrainer(model, n_shards=2).train(X, y)
    finally:
        telemetry.disable()
    assert reg.counter("reghd_distributed_rounds_total").value == 1
    assert all(
        name in {m.name for m in reg.metrics()}
        for name in (
            "reghd_distributed_rounds_total",
            "reghd_distributed_shards_total",
            "reghd_distributed_samples_total",
            "reghd_distributed_delta_bytes_total",
        )
    )


# -- CLI ---------------------------------------------------------------------


class TestCLI:
    def test_train_with_shards_and_merge_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        from repro.serialization import load_delta, load_model

        model_path = tmp_path / "model.npz"
        delta_dir = tmp_path / "deltas"
        code = main(
            [
                "train",
                "--dataset", "boston",
                "--k", "2",
                "--dim", "128",
                "--max-samples", "200",
                "--shards", "2",
                "--shard-rounds", "2",
                "--save", str(model_path),
                "--save-shard-deltas", str(delta_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shard rounds x 2 shards" in out
        assert model_path.exists()
        shard_files = sorted(delta_dir.glob("shard_*.npz"))
        assert len(shard_files) == 2
        assert load_delta(shard_files[0]).n_samples > 0

        merged_path = tmp_path / "merged.npz"
        merged_delta = tmp_path / "merged_delta.npz"
        code = main(
            [
                "merge",
                *[str(p) for p in shard_files],
                "--base", str(model_path),
                "--output", str(merged_path),
                "--delta-out", str(merged_delta),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "merged      : 2 delta(s)" in out
        assert load_model(merged_path).fitted
        assert load_delta(merged_delta).n_samples > 0

    def test_sequential_train_unaffected_by_new_flags(self, capsys):
        from repro.cli import main

        code = main(
            [
                "train",
                "--dataset", "boston",
                "--k", "2",
                "--dim", "128",
                "--epochs", "3",
                "--max-samples", "200",
            ]
        )
        assert code == 0
        assert "test MSE" in capsys.readouterr().out
