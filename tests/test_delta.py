"""Unit tests for the ModelDelta protocol primitives.

Covers the Chan moment algebra (including the zero-count-shard
regression case), TargetScaler merge/freeze semantics, the recorder,
the counts-weighted merge, delta serialisation, and per-shard seed
derivation.
"""

import numpy as np
import pytest

from repro.core import SingleModelRegHD, derive_shard_seed
from repro.core.delta import (
    DeltaRecorder,
    ModelDelta,
    TargetMoments,
    merge_deltas,
    merge_moments,
)
from repro.core.estimator import TargetScaler
from repro.exceptions import ConfigurationError
from repro.serialization import load_delta, load_model, save_delta, save_model


# -- TargetMoments / Chan merge ---------------------------------------------


def test_moments_from_values_match_numpy():
    y = np.random.default_rng(0).normal(3.0, 2.0, size=257)
    m = TargetMoments.from_values(y)
    assert m.count == 257
    assert m.mean == pytest.approx(np.mean(y))
    assert m.variance == pytest.approx(np.var(y))
    assert m.std == pytest.approx(np.std(y))


def test_chan_merge_is_exact_for_any_split():
    y = np.random.default_rng(1).normal(-1.0, 5.0, size=400)
    pooled = TargetMoments.from_values(y)
    for cut in (1, 13, 200, 399):
        merged = TargetMoments.from_values(y[:cut]).merge(
            TargetMoments.from_values(y[cut:])
        )
        assert merged.count == pooled.count
        assert merged.mean == pytest.approx(pooled.mean, rel=1e-12)
        assert merged.m2 == pytest.approx(pooled.m2, rel=1e-12)


def test_zero_count_shard_is_bitexact_merge_identity():
    """Regression: a shard that saw no samples must not perturb the
    pooled moments at all — not even at float-rounding level."""
    y = np.random.default_rng(2).normal(size=100)
    m = TargetMoments.from_values(y)
    empty = TargetMoments()
    assert m.merge(empty) == m
    assert empty.merge(m) == m
    assert empty.merge(empty) == empty
    assert merge_moments([empty, m, empty]) == m


def test_moments_meta_roundtrip():
    m = TargetMoments.from_values(np.array([1.0, 2.0, 4.0]))
    assert TargetMoments.from_meta(m.to_meta()) == m


# -- TargetScaler streaming-freeze semantics under merge --------------------


def test_scaler_merge_equals_pooled_fit():
    rng = np.random.default_rng(3)
    parts = [rng.normal(2.0, 3.0, size=n) for n in (50, 1, 200)]
    shards = [TargetScaler().fit(p) for p in parts]
    merged = TargetScaler.merge(shards)
    pooled = TargetScaler().fit(np.concatenate(parts))
    assert merged.fitted
    assert merged.mean == pytest.approx(pooled.mean, rel=1e-12)
    assert merged.scale == pytest.approx(pooled.scale, rel=1e-12)


def test_scaler_merge_with_zero_count_shard():
    """An unfitted (or legacy, moment-less) scaler is a merge identity."""
    y = np.random.default_rng(4).normal(size=64)
    fitted = TargetScaler().fit(y)
    merged = TargetScaler.merge([TargetScaler(), fitted, TargetScaler()])
    assert merged.mean == fitted.mean
    assert merged.scale == fitted.scale
    assert merged.count == fitted.count


def test_scaler_merge_of_nothing_is_identity_map():
    merged = TargetScaler.merge([TargetScaler(), TargetScaler()])
    assert not merged.fitted
    assert merged.transform(np.array([5.0]))[0] == 5.0


def test_scaler_merge_constant_targets_falls_back_to_unit_scale():
    merged = TargetScaler.merge(
        [TargetScaler().fit(np.full(10, 7.0)) for _ in range(2)]
    )
    assert merged.mean == pytest.approx(7.0)
    assert merged.scale == 1.0


def test_scaler_freeze_once_is_frozen_against_merge_adoption():
    """apply_delta must not re-standardise a scaler that already froze."""
    model = SingleModelRegHD(3, dim=64, seed=0)
    model.scaler.freeze_once(np.array([1.0, 2.0, 3.0]))
    before = model.scaler.get_state()
    model.begin_delta()
    rng = np.random.default_rng(0)
    model.partial_fit(rng.normal(size=(20, 3)), rng.normal(100.0, 9.0, 20))
    delta = model.capture_delta()
    fresh = SingleModelRegHD(3, dim=64, seed=0)
    fresh.scaler.freeze_once(np.array([1.0, 2.0, 3.0]))
    fresh.apply_delta(delta)
    assert fresh.scaler.get_state() == before


def test_scaler_legacy_state_restores_as_zero_count():
    s = TargetScaler()
    s.set_state({"mean": 1.0, "scale": 2.0, "fitted": True})
    assert s.count == 0 and s.m2 == 0.0
    assert s.moments.count == 0  # merge identity


# -- recorder + merge algebra -----------------------------------------------


def _make_delta(seed: int, n_samples: int, counts=None) -> ModelDelta:
    rng = np.random.default_rng(seed)
    rec = DeltaRecorder(
        "multi",
        {"fp": 1},
        {"clusters_integer": (3, 4), "models_integer": (3, 4)},
        counted=("clusters_integer",),
    )
    rec.observe_targets(rng.normal(size=n_samples))
    rec.accumulate("models_integer", rng.normal(size=(3, 4)))
    rec.accumulate(
        "clusters_integer",
        rng.normal(size=(3, 4)),
        np.array(counts if counts is not None else [n_samples, 0, 0]),
    )
    return rec.finish()


def test_singleton_merge_is_exact_copy():
    d = _make_delta(0, 10)
    merged = merge_deltas([d])
    assert merged is not d
    for name in d.arrays:
        assert np.array_equal(merged.arrays[name], d.arrays[name])
    assert merged.n_samples == d.n_samples
    assert merged.moments == d.moments


def test_merge_weights_by_sample_share():
    a, b = _make_delta(1, 30), _make_delta(2, 10)
    merged = merge_deltas([a, b])
    expected = (30 * a.arrays["models_integer"] + 10 * b.arrays["models_integer"]) / 40
    np.testing.assert_allclose(merged.arrays["models_integer"], expected)
    assert merged.n_samples == 40


def test_merge_weights_counted_arrays_per_row():
    a = _make_delta(3, 20, counts=[10, 10, 0])
    b = _make_delta(4, 20, counts=[0, 10, 0])
    merged = merge_deltas([a, b])
    # Row 0: only shard a contributed -> exactly a's row.
    np.testing.assert_allclose(
        merged.arrays["clusters_integer"][0], a.arrays["clusters_integer"][0]
    )
    # Row 1: equal counts -> plain average.
    np.testing.assert_allclose(
        merged.arrays["clusters_integer"][1],
        0.5 * (a.arrays["clusters_integer"][1] + b.arrays["clusters_integer"][1]),
    )
    # Row 2: nobody touched it -> stays zero (0/0 guard).
    np.testing.assert_array_equal(merged.arrays["clusters_integer"][2], 0.0)
    np.testing.assert_array_equal(merged.row_counts["clusters_integer"], [10, 20, 0])


def test_merge_refuses_incompatible_deltas():
    a = _make_delta(5, 10)
    b = _make_delta(6, 10)
    b.fingerprint = {"fp": 2}
    with pytest.raises(ConfigurationError):
        merge_deltas([a, b])
    b.fingerprint = {"fp": 1}
    b.model_type = "single"
    with pytest.raises(ConfigurationError):
        merge_deltas([a, b])
    with pytest.raises(ConfigurationError):
        merge_deltas([])


def test_scaled_rescales_updates_but_not_evidence():
    d = _make_delta(8, 10)
    half = d.scaled(0.5)
    np.testing.assert_allclose(
        half.arrays["models_integer"], 0.5 * d.arrays["models_integer"]
    )
    assert half.n_samples == d.n_samples
    assert half.moments == d.moments


# -- span discipline ---------------------------------------------------------


def test_delta_spans_do_not_nest_and_apply_refuses_open_span():
    model = SingleModelRegHD(2, dim=32, seed=0)
    model.begin_delta()
    with pytest.raises(ConfigurationError):
        model.begin_delta()
    with pytest.raises(ConfigurationError):
        model.apply_delta(_make_delta(0, 1))
    model.capture_delta()
    with pytest.raises(ConfigurationError):
        model.capture_delta()


def test_apply_delta_refuses_wrong_type_and_fingerprint():
    rng = np.random.default_rng(0)
    model = SingleModelRegHD(2, dim=32, seed=0)
    model.begin_delta()
    model.partial_fit(rng.normal(size=(8, 2)), rng.normal(size=8))
    delta = model.capture_delta()
    other_dim = SingleModelRegHD(2, dim=64, seed=0)
    with pytest.raises(ConfigurationError):
        other_dim.apply_delta(delta)
    delta.model_type = "multi"
    with pytest.raises(ConfigurationError):
        model.apply_delta(delta)


# -- serialisation -----------------------------------------------------------


def test_delta_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    model = SingleModelRegHD(4, dim=128, seed=0)
    model.begin_delta()
    model.partial_fit(rng.normal(size=(50, 4)), rng.normal(size=50))
    delta = model.capture_delta()

    path = save_delta(delta, tmp_path / "delta.npz")
    restored = load_delta(path)
    assert restored.model_type == delta.model_type
    assert restored.fingerprint == delta.fingerprint
    assert restored.n_samples == delta.n_samples
    assert restored.moments == delta.moments
    np.testing.assert_array_equal(
        restored.arrays["model_vector"], delta.arrays["model_vector"]
    )

    fresh = SingleModelRegHD(4, dim=128, seed=0)
    fresh.apply_delta(restored)
    np.testing.assert_array_equal(fresh.model, model.model)


def test_model_and_delta_loaders_refuse_each_other(tmp_path):
    rng = np.random.default_rng(0)
    model = SingleModelRegHD(4, dim=64, seed=0)
    model.partial_fit(rng.normal(size=(20, 4)), rng.normal(size=20))
    model.begin_delta()
    model.partial_fit(rng.normal(size=(20, 4)), rng.normal(size=20))
    delta = model.capture_delta()

    model_path = save_model(model, tmp_path / "model.npz")
    delta_path = save_delta(delta, tmp_path / "delta.npz")
    with pytest.raises(ConfigurationError, match="use load_delta"):
        load_model(delta_path)
    with pytest.raises(ConfigurationError, match="use load_model"):
        load_delta(model_path)


# -- per-shard seeding --------------------------------------------------------


def test_derive_shard_seed_is_deterministic_and_distinct():
    seeds = [derive_shard_seed(42, shard) for shard in range(16)]
    assert seeds == [derive_shard_seed(42, shard) for shard in range(16)]
    assert len(set(seeds)) == 16
    assert derive_shard_seed(43, 0) != seeds[0]


def test_derive_shard_seed_none_passes_through():
    assert derive_shard_seed(None, 3) is None


def test_derive_shard_seed_rejects_negative_shard():
    with pytest.raises(ConfigurationError):
        derive_shard_seed(0, -1)


def test_derive_shard_seed_disjoint_from_model_streams():
    """Shard seeds must not collide with the per-purpose derive_generator
    streams models already consume (encoder bases key 0, shuffling 1)."""
    from repro.utils.rng import derive_generator

    shard_rng = np.random.default_rng(derive_shard_seed(0, 0))
    encoder_rng = derive_generator(0, 0)
    assert not np.array_equal(
        shard_rng.normal(size=8), encoder_rng.normal(size=8)
    )
