"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


class TestDatasets:
    def test_lists_paper_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("diabetes", "boston", "airfoil", "ccpp"):
            assert name in out

    def test_json_listing_is_machine_readable(self, capsys):
        import json

        assert main(["datasets", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in listing}
        assert "airfoil" in by_name
        assert "paper" in by_name["airfoil"]["tags"]
        assert "n_samples" in by_name["friedman1"]["params"]


class TestWorkloads:
    def test_lists_the_catalogue(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "airfoil_steady" in out
        assert "adversarial_burst" in out

    def test_json_listing_declares_the_scenario(self, capsys):
        import json

        assert main(["workloads", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in listing}
        burst = by_name["adversarial_burst"]
        assert burst["traffic"] == "adversarial"
        assert burst["guard_policy"] == "mahalanobis"
        assert burst["faults"][0]["injector"] == "outlier_burst"


class TestReplay:
    def test_replay_one_workload_writes_the_record(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_workloads.json"
        code = main(
            ["replay", "airfoil_steady", "--quick", "--output", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "airfoil_steady" in out
        record = json.loads(out_path.read_text())
        assert record["benchmark"] == "reghd-workload-replay"
        assert record["quick"] is True
        assert record["results"][0]["workload"] == "airfoil_steady"

    def test_replay_unknown_workload_raises(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["replay", "no_such_workload", "--quick"])


class TestTrain:
    def test_train_multi_model(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "boston",
                "--k", "4",
                "--dim", "256",
                "--epochs", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "test MSE" in out
        assert "MultiModelRegHD" in out

    def test_train_single_model(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "boston",
                "--k", "1",
                "--dim", "256",
                "--epochs", "4",
            ]
        )
        assert code == 0
        assert "SingleModelRegHD" in capsys.readouterr().out

    def test_train_quantized(self, capsys):
        code = main(
            [
                "train",
                "--dataset", "boston",
                "--k", "2",
                "--dim", "256",
                "--epochs", "3",
                "--cluster-quant", "framework",
                "--predict-quant", "binary_query",
            ]
        )
        assert code == 0

    def test_train_save_and_predict(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        main(
            [
                "train",
                "--dataset", "boston",
                "--k", "2",
                "--dim", "128",
                "--epochs", "3",
                "--max-samples", "200",
                "--save", str(model_path),
            ]
        )
        capsys.readouterr()
        assert model_path.exists()

        features = tmp_path / "features.csv"
        rng = np.random.default_rng(0)
        np.savetxt(features, rng.normal(size=(5, 13)), delimiter=",")
        assert main(["predict", str(model_path), str(features)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(np.isfinite(float(line)) for line in lines)

    def test_unknown_dataset_raises(self):
        with pytest.raises(Exception):
            main(["train", "--dataset", "nope", "--epochs", "1"])


class TestCompare:
    def test_compare_runs(self, capsys):
        code = main(
            [
                "compare",
                "--dataset", "boston",
                "--dim", "256",
                "--max-samples", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for label in ("RegHD-8", "Baseline-HD", "DNN"):
            assert label in out


class TestCapacity:
    def test_false_positive_query(self, capsys):
        assert main(
            ["capacity", "--dim", "100000", "--patterns", "10000"]
        ) == 0
        assert "5.69" in capsys.readouterr().out

    def test_capacity_query(self, capsys):
        assert main(
            ["capacity", "--dim", "100000", "--max-error", "0.057"]
        ) == 0
        out = capsys.readouterr().out
        assert "patterns" in out

    def test_requires_one_of_group(self):
        with pytest.raises(SystemExit):
            main(["capacity", "--dim", "1000"])


class TestHardware:
    def test_report_runs(self, capsys):
        assert main(["hardware", "--dim", "2000", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "KiB" in out
        assert "fpga-kintex7" in out
        assert "arm-a53" in out

    def test_quantization_flags(self, capsys):
        assert main(
            [
                "hardware",
                "--dim", "1000",
                "--cluster-quant", "none",
                "--predict-quant", "full",
                "--density", "0.5",
            ]
        ) == 0
        assert "density=0.5" in capsys.readouterr().out


class TestScalerSidecar:
    def test_predict_applies_saved_scaler(self, tmp_path, capsys):
        """Predictions on raw-unit features must land in target units —
        the sidecar scaler reproduces the training pipeline."""
        from repro.datasets import load_dataset

        model_path = tmp_path / "model.npz"
        main(
            [
                "train",
                "--dataset", "ccpp",
                "--k", "2",
                "--dim", "256",
                "--epochs", "4",
                "--max-samples", "400",
                "--save", str(model_path),
            ]
        )
        capsys.readouterr()
        sidecar = tmp_path / "model.npz.scaler.json"
        assert sidecar.exists()

        # Raw (unstandardised) feature rows from the same dataset.
        ds = load_dataset("ccpp")
        features = tmp_path / "raw.csv"
        np.savetxt(features, ds.X[:8], delimiter=",")
        assert main(["predict", str(model_path), str(features)]) == 0
        preds = [float(l) for l in capsys.readouterr().out.strip().splitlines()]
        # CCPP targets live around 400-500 MW; without the scaler the
        # predictions would collapse to ~the target mean for every row.
        assert all(380.0 < p < 520.0 for p in preds)
        assert np.std(preds) > 0.5


class TestBench:
    """Backend selection on the serving command line."""

    @pytest.mark.parametrize("command", ["predict"])
    def test_backend_choices_are_the_registered_backends(self, command, capsys):
        args = [command, "model.npz", "rows.txt", "--backend", "packed"]
        with pytest.raises(SystemExit):
            main(args)
        err = capsys.readouterr().err
        choices = err[err.index("choose from") :]
        assert "dense" in choices and "packed_v2" in choices


class TestReport:
    def test_collects_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1.txt").write_text("Table 1\nrow\n")
        (results / "fig8.txt").write_text("Fig 8\nrow\n")
        out_file = tmp_path / "report.md"
        assert main(
            [
                "report",
                "--results-dir", str(results),
                "--output", str(out_file),
            ]
        ) == 0
        text = out_file.read_text()
        assert "## table1" in text and "## fig8" in text
        assert "Table 1" in text

    def test_stdout_mode(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "x.txt").write_text("hello\n")
        assert main(["report", "--results-dir", str(results)]) == 0
        assert "hello" in capsys.readouterr().out

    def test_missing_dir_errors(self, tmp_path):
        assert main(
            ["report", "--results-dir", str(tmp_path / "nope")]
        ) == 1


class TestStream:
    def test_stream_runs_with_reliability_stack(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        code = main(
            [
                "stream",
                "--dataset", "boston",
                "--k", "2",
                "--dim", "256",
                "--batch-size", "32",
                "--max-batches", "12",
                "--checkpoint-dir", str(ckpt_dir),
                "--checkpoint-every", "4",
                "--guard-policy", "repair",
                "--scrub-every", "3",
                "--watchdog",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "batches processed" in out
        assert "rollbacks" in out
        assert list(ckpt_dir.glob("ckpt-*.npz"))

    def test_stream_resume_from_checkpoint(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ckpts"
        args = [
            "stream",
            "--dataset", "boston",
            "--k", "2",
            "--dim", "256",
            "--batch-size", "32",
            "--checkpoint-dir", str(ckpt_dir),
            "--checkpoint-every", "3",
        ]
        assert main(args + ["--max-batches", "6"]) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "recovered from checkpoint at batch 6" in out

    def test_stream_resume_requires_checkpoint_dir(self, capsys):
        code = main(
            ["stream", "--dataset", "boston", "--resume"]
        )
        assert code == 1
        assert "requires --checkpoint-dir" in capsys.readouterr().err

    def test_stream_plain(self, capsys):
        code = main(
            [
                "stream",
                "--dataset", "boston",
                "--batch-size", "64",
                "--max-batches", "5",
                "--dim", "256",
                "--k", "2",
            ]
        )
        assert code == 0
        assert "batches processed : 5" in capsys.readouterr().out


class TestStreamRobustness:
    def test_mahalanobis_guard_over_contaminated_stream(self, capsys):
        code = main(
            [
                "stream",
                "--dataset", "airfoil",
                "--batch-size", "50",
                "--max-batches", "20",
                "--dim", "256",
                "--k", "2",
                "--guard-policy", "mahalanobis",
                "--contaminate", "0.1",
                "--contaminate-magnitude", "10.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rows gated" in out
        gated = int(out.split("rows gated")[1].split(":")[1].split()[0])
        assert gated > 0  # the burst must not sail through

    def test_stream_intervals_summary(self, capsys):
        code = main(
            [
                "stream",
                "--dataset", "boston",
                "--batch-size", "50",
                "--max-batches", "8",
                "--dim", "256",
                "--k", "2",
                "--intervals",
                "--alpha", "0.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "conformal" in out
        assert "@ alpha 0.2" in out

    def test_unknown_guard_policy_lists_valid(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "stream",
                    "--dataset", "boston",
                    "--max-batches", "2",
                    "--guard-policy", "bogus",
                ]
            )
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "mahalanobis" in err


class TestPredictIntervals:
    def test_predict_with_intervals(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        main(
            [
                "train",
                "--dataset", "boston",
                "--k", "2",
                "--dim", "128",
                "--epochs", "3",
                "--max-samples", "200",
                "--save", str(model_path),
            ]
        )
        capsys.readouterr()

        features = tmp_path / "features.csv"
        rng = np.random.default_rng(0)
        np.savetxt(features, rng.normal(size=(5, 13)), delimiter=",")
        code = main(
            ["predict", str(model_path), str(features), "--intervals"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["prediction", "lower", "upper"]
        assert len(lines) == 6  # header + 5 rows
        for line in lines[1:]:
            pred, lo, hi = map(float, line.split())
            assert lo <= pred <= hi


class TestTelemetry:
    @pytest.fixture(autouse=True)
    def _restore_sink(self):
        from repro import telemetry

        previous = telemetry.active()
        yield
        if previous is not None:
            telemetry.enable(previous)
        else:
            telemetry.disable()

    def test_catalog_lists_every_metric(self, capsys):
        from repro.telemetry import CATALOG

        assert main(["telemetry", "--catalog"]) == 0
        out = capsys.readouterr().out
        for name in CATALOG:
            assert name in out

    def test_workload_prints_prometheus_text(self, capsys):
        code = main(
            ["telemetry", "--dim", "128", "--rows", "64", "--batches", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE reghd_kernel_calls_total counter" in out
        batches = next(
            int(line.split()[-1])
            for line in out.splitlines()
            if line.startswith("reghd_stream_batches_total")
        )
        assert batches >= 3

    def test_workload_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.json"
        code = main(
            [
                "telemetry",
                "--dim", "128",
                "--rows", "64",
                "--batches", "3",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        import json

        payload = json.loads(out_path.read_text())
        assert set(payload) == {
            "meta", "metrics", "events", "events_dropped"
        }

    def test_stream_metrics_out(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.prom"
        code = main(
            [
                "stream",
                "--dataset", "boston",
                "--batch-size", "32",
                "--max-batches", "6",
                "--dim", "256",
                "--k", "2",
                "--checkpoint-dir", str(tmp_path / "ckpts"),
                "--checkpoint-every", "3",
                "--guard-policy", "repair",
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        assert "wrote metrics" in capsys.readouterr().out
        text = metrics_path.read_text()
        assert "reghd_kernel_calls_total{" in text
        assert "reghd_serving_latency_seconds_bucket{" in text
        assert "reghd_cache_events_total{" in text
        # at least one reliability counter (acceptance criterion)
        assert "reghd_checkpoint_writes_total" in text

    def test_predict_metrics_out(self, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        assert main(
            [
                "train",
                "--dataset", "boston",
                "--k", "2",
                "--dim", "256",
                "--epochs", "2",
                "--save", str(model_path),
            ]
        ) == 0
        capsys.readouterr()
        rng = np.random.default_rng(0)
        features_path = tmp_path / "features.txt"
        np.savetxt(features_path, rng.normal(size=(16, 13)))
        metrics_path = tmp_path / "m.prom"
        code = main(
            [
                "predict",
                str(model_path),
                str(features_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        text = metrics_path.read_text()
        assert "reghd_build_info{" in text
        assert "reghd_serving_rows_total 16" in text


class TestObservabilityCLI:
    @pytest.fixture(autouse=True)
    def _isolated_sinks(self):
        from repro.telemetry import flight as flight_mod
        from repro.telemetry import metrics as metrics_mod
        from repro.telemetry import tracing as tracing_mod

        flight_mod.disable_flight()
        tracing_mod.disable_tracing()
        metrics_mod.disable()
        yield
        flight_mod.disable_flight()
        tracing_mod.disable_tracing()
        metrics_mod.disable()

    def test_trace_command_exports_chrome_trace(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "trace.json"
        code = main(
            ["trace", "airfoil_steady", "--quick", "--out", str(out_path)]
        )
        assert code == 0
        assert "wrote trace" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        names = {e["name"] for e in payload["traceEvents"]}
        assert "replay/batch" in names
        assert "encode" in names and "search" in names

    def test_top_once_renders_a_snapshot(self, tmp_path, capsys):
        from repro.telemetry import slo as slo_mod

        path = tmp_path / "live.json"
        slo_mod.SnapshotWriter(path).write(
            {
                "kind": slo_mod.SNAPSHOT_KIND,
                "workload": "wine",
                "batches": 3,
                "rows": 96,
                "qps": 10.0,
                "p50_ms": 1.0,
                "p99_ms": 2.0,
                "slo": [],
            }
        )
        assert main(["top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "reghd top" in out
        assert "workload wine" in out
        assert "\x1b[2J" not in out  # --once never clears the screen

    def test_forced_breach_replay_dumps_flight_bundles(
        self, tmp_path, capsys
    ):
        import json

        flight_dir = tmp_path / "flight"
        live_path = tmp_path / "live.json"
        code = main(
            [
                "replay", "airfoil_steady", "--quick",
                "--force-breach",
                "--flight-dir", str(flight_dir),
                "--live-out", str(live_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # the forced gate must fail the run
        assert "FAIL" in out
        assert "flight dumps" in out
        dumps = sorted(flight_dir.glob("flight-*.json"))
        assert any("gate-breach" in d.name for d in dumps)
        assert any("watchdog-rollback" in d.name for d in dumps)
        bundle = json.loads(dumps[0].read_text())
        assert bundle["kind"] == "reghd-flight-dump"
        # the live snapshot is attachable with `repro top`
        assert main(["top", str(live_path), "--once"]) == 0
        assert "airfoil_steady" in capsys.readouterr().out
