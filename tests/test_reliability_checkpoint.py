"""Tests for atomic, checksummed, rotating checkpoints."""

import numpy as np
import pytest

from repro import MultiModelRegHD, RegHDConfig
from repro.core import ConvergencePolicy
from repro.exceptions import CheckpointCorruptError, RecoveryError
from repro.reliability import CheckpointManager, file_crc
from repro.reliability import checkpoint

CONFIG = RegHDConfig(
    dim=128, n_models=3, seed=0, convergence=ConvergencePolicy(max_epochs=4, patience=2)
)


@pytest.fixture
def model(rng):
    X = rng.normal(size=(80, 4))
    y = np.sin(X[:, 0]) + X[:, 1]
    return MultiModelRegHD(4, CONFIG).fit(X, y)


class TestSaveAndNaming:
    def test_name_embeds_batch_and_crc(self, model, tmp_path):
        info = CheckpointManager(tmp_path).save(model, batch=7)
        assert info.path.name == f"ckpt-00000007-{info.crc:08x}.npz"
        assert file_crc(info.path) == info.crc

    def test_save_checksums_the_bytes_it_writes(
        self, model, tmp_path, rng, monkeypatch
    ):
        """A save serialises once and names the file by the CRC of the
        bytes it writes: it reads nothing back, the CRC in the published
        name equals the file's, and load_latest restores bit-exactly."""
        reads = []
        read_bytes = checkpoint._read_bytes

        def counting(path):
            reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(checkpoint, "_read_bytes", counting)
        manager = CheckpointManager(tmp_path)
        info = manager.save(model, batch=4, extra={"stream": {"batch": 4}})
        assert reads == []
        assert file_crc(info.path) == info.crc
        loaded, extra, latest = manager.load_latest()
        assert latest == info
        assert extra == {"stream": {"batch": 4}}
        meta, arrays = model.get_state()
        loaded_meta, loaded_arrays = loaded.get_state()
        assert loaded_meta == meta
        assert loaded_arrays.keys() == arrays.keys()
        for name, values in arrays.items():
            np.testing.assert_array_equal(loaded_arrays[name], values)
        X = rng.normal(size=(16, 4))
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_no_temp_files_left_behind(self, model, tmp_path):
        CheckpointManager(tmp_path).save(model, batch=1)
        assert not list(tmp_path.glob("*.tmp*"))

    def test_extra_state_roundtrip(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        info = manager.save(model, batch=3, extra={"stream": {"batch": 3}})
        _, extra = manager.load(info)
        assert extra == {"stream": {"batch": 3}}

    def test_load_restores_bit_exact(self, model, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        info = manager.save(model, batch=1)
        loaded, _ = manager.load(info)
        X = rng.normal(size=(16, 4))
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_negative_batch_rejected(self, model, tmp_path):
        with pytest.raises(RecoveryError):
            CheckpointManager(tmp_path).save(model, batch=-1)

    def test_invalid_keep_rejected(self, tmp_path):
        with pytest.raises(RecoveryError):
            CheckpointManager(tmp_path, keep=0)


class TestRotation:
    def test_keeps_newest_k(self, model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for batch in range(1, 6):
            manager.save(model, batch=batch)
        assert [c.batch for c in manager.checkpoints()] == [4, 5]

    def test_foreign_files_ignored(self, model, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        manager = CheckpointManager(tmp_path, keep=1)
        manager.save(model, batch=1)
        manager.save(model, batch=2)
        assert (tmp_path / "notes.txt").exists()
        assert len(manager.checkpoints()) == 1


class TestValidationAndRecovery:
    def test_latest_valid_returns_newest(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(model, batch=1)
        manager.save(model, batch=2)
        assert manager.latest_valid().batch == 2

    def test_corrupt_newest_is_skipped(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(model, batch=1)
        newest = manager.save(model, batch=2)
        data = bytearray(newest.path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.path.write_bytes(bytes(data))
        assert manager.latest_valid().batch == 1

    def test_truncated_newest_is_skipped(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(model, batch=1)
        newest = manager.save(model, batch=2)
        newest.path.write_bytes(newest.path.read_bytes()[:100])
        assert manager.latest_valid().batch == 1

    def test_verify_raises_on_corruption(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        info = manager.save(model, batch=1)
        info.path.write_bytes(b"garbage")
        with pytest.raises(CheckpointCorruptError, match="CRC mismatch"):
            manager.verify(info)

    def test_no_checkpoints_means_none(self, tmp_path):
        assert CheckpointManager(tmp_path).latest_valid() is None

    def test_load_latest_raises_when_empty(self, tmp_path):
        with pytest.raises(RecoveryError, match="no valid checkpoint"):
            CheckpointManager(tmp_path).load_latest()

    def test_load_latest_raises_when_all_corrupt(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        info = manager.save(model, batch=1)
        info.path.write_bytes(b"junk")
        with pytest.raises(RecoveryError):
            manager.load_latest()


def _flip_byte(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


def _side_files(directory, pattern):
    return sorted(p.name for p in directory.glob(pattern))


class TestEncoderFile:
    def test_written_once_and_kept_out_of_checkpoints(self, model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        manager.save(model, batch=1)
        (encoder,) = tmp_path.glob("encoder-*.npz")
        inode = encoder.stat().st_ino
        for batch in range(2, 6):
            manager.save(model, batch=batch)
        assert _side_files(tmp_path, "encoder-*.npz") == [encoder.name]
        assert encoder.stat().st_ino == inode
        assert file_crc(encoder) == int(encoder.stem.split("-")[1], 16)
        for info in manager.checkpoints():
            members = np.load(info.path).files
            assert not [m for m in members if m.startswith("encoder_")]

    def test_missing_file_is_written_again(self, model, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        manager.save(model, batch=1)
        for path in tmp_path.glob("encoder-*.npz"):
            path.unlink()
        manager.save(model, batch=2)
        loaded, _, info = manager.load_latest()
        assert info.batch == 2
        X = rng.normal(size=(8, 4))
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_missing_file_refuses_every_load(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(model, batch=1)
        manager.save(model, batch=2)
        (encoder,) = tmp_path.glob("encoder-*.npz")
        encoder.unlink()
        with pytest.raises(CheckpointCorruptError, match="encoder"):
            manager.verify(manager.checkpoints()[-1])
        assert manager.latest_valid() is None
        with pytest.raises(RecoveryError):
            CheckpointManager(tmp_path).load_latest()

    def test_corrupt_file_refuses_every_load(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save(model, batch=1)
        (encoder,) = tmp_path.glob("encoder-*.npz")
        _flip_byte(encoder, encoder.stat().st_size // 2)
        with pytest.raises(CheckpointCorruptError, match="CRC"):
            manager.verify(manager.checkpoints()[-1])
        with pytest.raises(RecoveryError):
            CheckpointManager(tmp_path).load_latest()

    def test_load_model_refuses_a_checkpoint(self, model, tmp_path):
        from repro.exceptions import ConfigurationError
        from repro.serialization import load_model

        info = CheckpointManager(tmp_path).save(model, batch=1)
        with pytest.raises(ConfigurationError, match="CheckpointManager"):
            load_model(info.path)


class TestJournal:
    @staticmethod
    def _save(manager, model, batch, retain=None):
        return manager.save(
            model, batch=batch, records=[{"batch": batch}], retain=retain
        )

    def test_load_returns_newest_retained_records(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        for batch in range(1, 6):
            self._save(manager, model, batch, retain=3)
        _, extra, _ = CheckpointManager(tmp_path).load_latest()
        assert extra["records"] == [{"batch": 3}, {"batch": 4}, {"batch": 5}]

    def test_extra_arrays_roundtrip(self, model, tmp_path):
        manager = CheckpointManager(tmp_path)
        window = np.linspace(0.0, 1.0, 7)
        info = manager.save(
            model, batch=1, extra={"k": 1}, arrays={"window": window}
        )
        _, extra = manager.load(info)
        np.testing.assert_array_equal(extra.pop("arrays")["window"], window)
        assert extra == {"k": 1}

    def test_bounded_journal_starts_afresh(self, model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=2)
        for batch in range(1, 40):
            self._save(manager, model, batch, retain=2)
            journals = _side_files(tmp_path, "journal-*.jsonl")
            assert 1 <= len(journals) <= 2
            for name in journals:
                lines = (tmp_path / name).read_bytes().count(b"\n")
                assert lines <= checkpoint._JOURNAL_SPAN * 2
        _, extra, _ = manager.load_latest()
        assert extra["records"] == [{"batch": 38}, {"batch": 39}]

    def test_prune_reads_no_kept_checkpoint(self, model, tmp_path, monkeypatch):
        manager = CheckpointManager(tmp_path, keep=2)
        reads = []
        monkeypatch.setattr(
            checkpoint, "read_metadata", lambda path: reads.append(path) or {}
        )
        for batch in range(1, 12):
            self._save(manager, model, batch, retain=1)
        assert reads == []

    def test_damaged_tail_fails_only_the_checkpoints_covering_it(
        self, model, tmp_path
    ):
        manager = CheckpointManager(tmp_path)
        for batch in (1, 2, 3):
            self._save(manager, model, batch)
        (journal,) = tmp_path.glob("journal-*.jsonl")
        _flip_byte(journal, journal.stat().st_size - 3)  # batch 3's line
        newest = manager.checkpoints()[-1]
        with pytest.raises(CheckpointCorruptError, match="journal"):
            manager.verify(newest)
        assert manager.latest_valid().batch == 2
        _, extra, info = CheckpointManager(tmp_path).load_latest()
        assert info.batch == 2
        assert extra["records"] == [{"batch": 1}, {"batch": 2}]

    def test_next_save_truncates_to_the_loaded_prefix(self, model, tmp_path):
        manager = CheckpointManager(tmp_path, keep=5)
        for batch in (1, 2, 3):
            self._save(manager, model, batch)
        older = manager.checkpoints()[1]
        manager.load(older)  # rewind to batch 2
        manager.save(model, batch=3, records=[{"batch": "3b"}])
        _, extra, _ = CheckpointManager(tmp_path).load_latest()
        assert extra["records"] == [{"batch": 1}, {"batch": 2}, {"batch": "3b"}]


class TestParentFormat:
    def test_self_contained_checkpoint_loads(self, model, tmp_path, rng):
        """A checkpoint written as one self-contained model file, named
        as before the encoder file and the journal, still loads."""
        import zlib

        from repro.serialization import model_bytes

        extra = {"stream": {"batch": 7, "history": {"reports": []}}}
        payload = model_bytes(model, extra=extra)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        (tmp_path / f"ckpt-00000007-{crc:08x}.npz").write_bytes(payload)
        manager = CheckpointManager(tmp_path)
        loaded, loaded_extra, info = manager.load_latest()
        assert info.batch == 7
        assert loaded_extra == extra
        X = rng.normal(size=(8, 4))
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))
