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
