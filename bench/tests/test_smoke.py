"""Short traced run of every workload against the layer mapping table."""

import json

import pytest

from bench import ROOT
from bench.worker import END_TO_END, run_workload
from bench.workloads import WORKLOADS

#: per workload: spans the README's mapping table says this workload moves
#: (each must record calls), and spans it bypasses (each must record none).
MAPPING = {
    "serve_point": (
        [
            "runtime.packed_v2.encode_pack",
            "engine.CompiledPlan.predict",
            "runtime.packed.cluster_similarities",
            "runtime.packed.model_dots",
        ],
        [
            "runtime.dense.cluster_similarities",
            "encoding.NonlinearEncoder.encode_batch",
            "engine.CompiledPlan.refresh",
            "reliability.InputGuard.check",
            "reliability.CheckpointManager.save",
            "core.MultiModelRegHD.fit_epoch",
        ],
    ),
    "stream_mixed": (
        [
            "encoding.NonlinearEncoder.encode_batch",
            "runtime.DualCopy.rebinarize",
            "engine.CompiledPlan.refresh",
            "reliability.InputGuard.check",
            "robust.MahalanobisGate.filter",
            "reliability.CheckpointManager.save",
            "core.MultiModelRegHD.partial_fit",
            "core.MultiModelRegHD.fit_epoch",
            "runtime.dense.weighted_model_step",
            "runtime.dense.segment_delta",
        ],
        [],
    ),
}


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_records_the_mapped_layers(name, declared, tmp_path):
    result, chrome = run_workload(name, 0, 2.0, True, str(tmp_path), setup_reps=1)

    assert result["correct"], (result["checks"], result["errors"])
    assert result["failed"] == 0
    assert list(result["metrics"]) == list(END_TO_END)
    assert [m["name"] for m in declared["end_to_end"]] == list(END_TO_END)
    assert set(result["layers"]) == {m["name"] for m in declared["per_layer"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    layers = result["layers"]
    moves, bypassed = MAPPING[name]
    for span in moves:
        assert layers[f"{span}.calls"]["value"] > 0, span
    for span in bypassed:
        assert layers[f"{span}.calls"]["value"] == 0, span
    assert layers["harness.unattributed_frac"]["value"] <= 0.05
    assert chrome["traceEvents"]
    assert list(tmp_path.iterdir()) == []  # checkpoints cleaned up


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_rmse_is_the_same_at_every_seed(name, tmp_path):
    rmse = {
        run_workload(name, seed, 1.0, False, str(tmp_path), setup_reps=1)[0][
            "metrics"
        ]["rmse"]["value"]
        for seed in (1, 2)
    }
    assert len(rmse) == 1, rmse
