"""The reference blocks that measure the host's speed."""

import numpy as np
import pytest

from bench.reference import Operands, ReferencePredict, ReferenceUpdate
from bench.workloads import WORKLOADS


def test_reference_predict_is_deterministic_and_finite():
    ops = Operands(6, 4096, 8)
    X = np.random.default_rng(0).normal(size=(8, 6))
    first = ReferencePredict(ops, 8)(X)
    again = ReferencePredict(Operands(6, 4096, 8), 8)(X)
    assert first.shape == (8,) and np.isfinite(first).all()
    assert np.array_equal(first, again)


def test_reference_update_saves_atomically(tmp_path):
    path = tmp_path / "reference.npz"
    update = ReferenceUpdate(Operands(6, 4096, 8), str(path))
    X = np.random.default_rng(0).normal(size=(32, 6))
    for _ in range(3):
        assert np.isfinite(update(X, np.zeros(32)))
    assert [p.name for p in tmp_path.iterdir()] == ["reference.npz"]
    assert np.load(path)["models"].shape == (8, 4096)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_reference_block_runs_without_setup_and_cleans_up(name, tmp_path):
    workload = WORKLOADS[name](0, str(tmp_path))
    p50_ms, rows_per_s = workload.reference_block()
    assert p50_ms > 0 and rows_per_s > 0
    workload.close()
    assert list(tmp_path.iterdir()) == []
