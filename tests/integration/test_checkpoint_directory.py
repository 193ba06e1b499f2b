"""A resilient stream's checkpoint directory: fixed-size writes, the
history journal across recovery and rollback, older self-contained
checkpoints, and the one-stream-per-directory rule."""

import zlib

import numpy as np
import pytest

from repro import RegHDConfig
from repro.exceptions import ConfigurationError, RecoveryError
from repro.reliability import ResilientStreamingRegHD, Watchdog
from repro.robust.conformal import AdaptiveConformal
from repro.serialization import model_bytes
from repro.streaming import PageHinkley, StreamingRegHD

CONFIG = RegHDConfig(dim=256, n_models=4, seed=0)


def batches(n, *, rows=16, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        X = rng.normal(size=(rows, 4))
        yield X, np.sin(2 * X[:, 0]) + X[:, 1]


def guarded(directory, **kwargs):
    kwargs.setdefault("checkpoint_every", 2)
    kwargs.setdefault("guard", "mahalanobis")
    return ResilientStreamingRegHD(
        4,
        CONFIG,
        detector=PageHinkley(),
        conformal=AdaptiveConformal(window=32),
        checkpoint_dir=directory,
        **kwargs,
    )


def flags(stream):
    return [(r.batch, r.checkpointed) for r in stream.history.reports]


class TestFixedSizeWrites:
    def test_checkpoint_at_batch_2000_matches_batch_20(self, tmp_path):
        """Default stream settings (``max_history=None``) with the
        Mahalanobis guard: a checkpoint's size does not grow with the
        stream, and the directory grows only by the journal."""
        stream = ResilientStreamingRegHD(
            4, CONFIG, guard="mahalanobis",
            checkpoint_dir=tmp_path, checkpoint_every=20,
        )
        early = None
        for X, y in batches(2000, rows=8):
            stream.update(X, y)
            if stream._batch_counter == 20:
                (early,) = stream.checkpoints.checkpoints()
                early_size = early.path.stat().st_size
                (encoder,) = tmp_path.glob("encoder-*.npz")
                (journal,) = tmp_path.glob("journal-*.jsonl")
                journal_size = journal.stat().st_size
        assert early is not None
        latest = stream.checkpoints.checkpoints()[-1]
        assert latest.batch == 2000
        assert abs(latest.path.stat().st_size - early_size) < 4096
        assert sorted(p.name for p in tmp_path.glob("encoder-*.npz")) == [
            encoder.name
        ]
        assert sorted(p.name for p in tmp_path.glob("journal-*.jsonl")) == [
            journal.name
        ]
        assert journal.stat().st_size > 50 * journal_size
        others = {p.name for p in tmp_path.iterdir()} - {
            encoder.name,
            journal.name,
            *(info.path.name for info in stream.checkpoints.checkpoints()),
        }
        assert others == set()
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered.history.n_batches == 2000


class TestHistoryAcrossRecovery:
    def test_checkpointed_flags_match_the_live_stream(self, tmp_path):
        stream = guarded(tmp_path)
        for X, y in batches(4):
            stream.update(X, y)
        assert flags(stream) == [(1, False), (2, True), (3, False), (4, True)]
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert flags(recovered) == flags(stream)
        assert list(recovered.history.reports) == list(stream.history.reports)

    def test_every_report_survives_chained_recoveries(self, tmp_path):
        data = list(batches(30, seed=3))
        reference = guarded(tmp_path / "reference", max_history=5)
        for X, y in data:
            reference.update(X, y)
        crashed = guarded(tmp_path / "stream", max_history=5)
        for X, y in data[:12]:
            crashed.update(X, y)
        del crashed

        def resume():
            return ResilientStreamingRegHD.recover(
                tmp_path / "stream", guard="mahalanobis", checkpoint_every=2
            )

        resumed = resume()
        for X, y in data[12:21]:
            resumed.update(X, y)
        del resumed
        resumed = resume()  # from batch 20: batch 21 is replayed
        for X, y in data[20:]:
            resumed.update(X, y)
        assert list(resumed.history.reports) == list(reference.history.reports)
        again = resume()
        assert list(again.history.reports) == list(reference.history.reports)
        assert again.history.max_reports == 5

    def test_failed_save_leaves_no_duplicate_reports(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint write that fails after its journal append leaves
        the report unmarked, and the next save journals it once."""
        from repro.reliability.checkpoint import CheckpointManager

        stream = guarded(tmp_path)
        data = list(batches(6))
        for X, y in data[:3]:
            stream.update(X, y)
        publish = CheckpointManager._publish

        def full_disk(manager, name, payload):
            if name.startswith("ckpt-"):
                raise OSError("no space left on device")
            return publish(manager, name, payload)

        monkeypatch.setattr(CheckpointManager, "_publish", full_disk)
        with pytest.raises(OSError):
            stream.update(*data[3])
        assert stream.history.reports[-1].checkpointed is False
        monkeypatch.setattr(CheckpointManager, "_publish", publish)
        for X, y in data[4:]:
            stream.update(X, y)
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert [r.batch for r in recovered.history.reports] == list(
            range(1, 7)
        )
        assert list(recovered.history.reports) == list(stream.history.reports)

    def test_damaged_journal_falls_back_to_an_older_checkpoint(
        self, tmp_path
    ):
        stream = guarded(tmp_path)
        for X, y in batches(8):
            stream.update(X, y)
        infos = stream.checkpoints.checkpoints()
        assert [i.batch for i in infos] == [4, 6, 8]
        (journal,) = tmp_path.glob("journal-*.jsonl")
        data = bytearray(journal.read_bytes())
        data[-5] ^= 0xFF  # inside batch 8's record
        journal.write_bytes(bytes(data))
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered._batch_counter == 6
        assert [r.batch for r in recovered.history.reports] == list(
            range(1, 7)
        )

    def test_lost_encoder_file_loses_recovery(self, tmp_path):
        stream = guarded(tmp_path)
        for X, y in batches(6):
            stream.update(X, y)
        (encoder,) = tmp_path.glob("encoder-*.npz")
        data = bytearray(encoder.read_bytes())
        data[len(data) // 2] ^= 0xFF
        encoder.write_bytes(bytes(data))
        with pytest.raises(RecoveryError):
            ResilientStreamingRegHD.recover(tmp_path)
        encoder.unlink()
        with pytest.raises(RecoveryError):
            ResilientStreamingRegHD.recover(tmp_path)


class TestRollbackRewindsTheJournal:
    def test_abandoned_reports_never_reach_a_later_checkpoint(
        self, tmp_path
    ):
        stream = guarded(
            tmp_path,
            guard=None,
            watchdog=Watchdog(baseline_batches=3, window=1, fail_factor=4.0),
            forgetting=1.0,
        )
        data = list(batches(8, seed=1))
        for X, y in data[:6]:
            stream.update(X, y)
        # The newest checkpoint (batch 6) is corrupt, so a rollback lands
        # on batch 4 and the journal's batch-5/6 records are abandoned.
        newest = stream.checkpoints.checkpoints()[-1]
        assert newest.batch == 6
        blob = bytearray(newest.path.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        newest.path.write_bytes(bytes(blob))
        X, _ = data[6]
        report = stream.update(X, np.full(len(X), 1e4))
        assert report.rolled_back
        assert stream.rollbacks[-1].restored_batch == 4
        assert [r.batch for r in stream.history.reports] == [1, 2, 3, 4, 7]
        for X, y in data[6:]:
            stream.update(X, y)
        assert stream.checkpoints.checkpoints()[-1].batch == 6
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert [r.batch for r in recovered.history.reports] == [
            1, 2, 3, 4, 7, 5, 6
        ]
        assert list(recovered.history.reports) == list(stream.history.reports)


class TestSelfContainedCheckpoint:
    def test_recovers_bit_exactly(self, tmp_path):
        """A checkpoint in the earlier self-contained format — history
        and conformal window inline, encoder arrays inside — recovers,
        resumes bit-exactly, and its history enters the next journal."""
        data = list(batches(12, seed=4))
        reference = guarded(tmp_path / "reference")
        for X, y in data:
            reference.update(X, y)

        source = guarded(tmp_path / "source", checkpoint_every=0)
        for X, y in data[:6]:
            source.update(X, y)
        state, arrays = source._stream_state()
        state["conformal"]["residuals"] = arrays["conformal_residuals"].tolist()
        state["history"] = source.history.get_state()
        payload = model_bytes(source.model, extra={"stream": state})
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        directory = tmp_path / "inline"
        directory.mkdir()
        (directory / f"ckpt-00000006-{crc:08x}.npz").write_bytes(payload)

        recovered = ResilientStreamingRegHD.recover(
            directory, guard="mahalanobis", checkpoint_every=2
        )
        assert list(recovered.history.reports) == list(source.history.reports)
        assert recovered.conformal.get_state() == source.conformal.get_state()
        for X, y in data[6:]:
            recovered.update(X, y)
        np.testing.assert_array_equal(
            recovered.model.models.integer, reference.model.models.integer
        )
        np.testing.assert_array_equal(
            recovered.history.mse_curve(), reference.history.mse_curve()
        )
        X_query = np.random.default_rng(9).normal(size=(16, 4))
        np.testing.assert_array_equal(
            recovered.predict(X_query), reference.predict(X_query)
        )
        again = ResilientStreamingRegHD.recover(directory)
        assert [r.batch for r in again.history.reports] == list(range(1, 13))


class TestOneStreamPerDirectory:
    def test_new_stream_refuses_a_used_directory(self, tmp_path):
        first = ResilientStreamingRegHD(
            4, CONFIG, checkpoint_dir=tmp_path, checkpoint_every=2
        )
        for X, y in batches(6):
            first.update(X, y)
        before = sorted(
            (p.name, p.read_bytes()) for p in tmp_path.iterdir()
        )
        with pytest.raises(ConfigurationError, match=r"recover\(\)"):
            ResilientStreamingRegHD(
                4,
                RegHDConfig(dim=256, n_models=4, seed=5),
                checkpoint_dir=tmp_path,
                checkpoint_every=1,
            )
        after = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        assert after == before
        recovered = ResilientStreamingRegHD.recover(tmp_path)
        assert recovered._batch_counter == 6

    def test_plain_stream_learning_is_unchanged(self, tmp_path):
        """Journaled checkpoints stay learning-neutral."""
        plain = StreamingRegHD(4, CONFIG, detector=PageHinkley())
        armored = guarded(tmp_path, checkpoint_every=1)
        for X, y in batches(10, seed=2):
            plain.update(X, y)
            armored.update(X, y)
        np.testing.assert_array_equal(
            plain.model.models.integer, armored.model.models.integer
        )
