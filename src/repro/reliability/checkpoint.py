"""Atomic, checksummed, rotating model checkpoints.

Checkpoint protocol (documented in README "Reliability & deployment"):

* one checkpoint == one ``.npz`` in the
  :func:`repro.serialization.save_model` format, built in memory by
  :func:`~repro.serialization.model_bytes` (registry-driven state protocol,
  so *any* registered model type checkpoints the same way): everything a
  recovery needs — model hypervectors, encoder bases, target scaling,
  plus wrapper state in the ``extra`` metadata — lives in a single file;
* **atomic**: the file is written to a temporary name in the target
  directory and published with :func:`os.replace`, so readers never
  observe a half-written checkpoint under its final name;
* **self-validating**: the final name embeds the CRC32 of the bytes
  written (``ckpt-<batch:08d>-<crc32:08x>.npz``); a reader recomputes the CRC
  before trusting a file, so truncation and bit rot are detected without
  a sidecar that could itself go missing;
* **rotating**: only the newest ``keep`` checkpoints are retained, and
  :meth:`CheckpointManager.latest_valid` walks newest-to-oldest past any
  corrupt file — one bad checkpoint costs one checkpoint interval, not
  the run.
"""

from __future__ import annotations

import os
import pathlib
import re
import zlib
from dataclasses import dataclass

from repro.exceptions import CheckpointCorruptError, RecoveryError
from repro.reliability.retry import retry
from repro.serialization import load_model, model_bytes, read_metadata
from repro.telemetry import metrics as _metrics

_NAME = re.compile(r"^ckpt-(?P<batch>\d{8})-(?P<crc>[0-9a-f]{8})\.npz$")


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint: its path, batch index and declared CRC."""

    path: pathlib.Path
    batch: int
    crc: int


@retry(attempts=3, base_delay=0.02, retry_on=(OSError,))
def _read_bytes(path: pathlib.Path) -> bytes:
    return path.read_bytes()


def file_crc(path: pathlib.Path) -> int:
    """CRC32 of a file's bytes (retried on transient I/O errors)."""
    return zlib.crc32(_read_bytes(path)) & 0xFFFFFFFF


class CheckpointManager:
    """Write, rotate, verify and recover checkpoints in one directory.

    Parameters
    ----------
    directory:
        Checkpoint directory; created if missing.
    keep:
        Number of newest checkpoints to retain (>= 1).  Keep at least 2 in
        production so a corrupt newest file still leaves a fallback.
    """

    def __init__(self, directory: str | pathlib.Path, *, keep: int = 3):
        if keep < 1:
            raise RecoveryError(f"keep must be >= 1, got {keep}")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)

    # -- writing -----------------------------------------------------------

    def save(self, model, *, batch: int, extra: dict | None = None) -> CheckpointInfo:
        """Checkpoint ``model`` (+ wrapper state) for ``batch``, atomically.

        Returns the published checkpoint and prunes beyond ``keep``.
        """
        if batch < 0:
            raise RecoveryError(f"batch must be >= 0, got {batch}")
        # Serialise once, in memory: the CRC comes from the bytes being
        # written, so the file is never read back to name it.
        payload = model_bytes(model, extra=extra)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        tmp = self.directory / f".ckpt-{batch:08d}.tmp.npz"
        tmp.write_bytes(payload)
        final = self.directory / f"ckpt-{batch:08d}-{crc:08x}.npz"
        os.replace(tmp, final)
        self.prune()
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_checkpoint_writes_total").inc()
            registry.record_event(
                "checkpoint_write",
                batch=batch,
                checkpoint_id=final.stem,
                bytes=len(payload),
            )
        return CheckpointInfo(path=final, batch=batch, crc=crc)

    def prune(self) -> list[pathlib.Path]:
        """Delete all but the newest ``keep`` checkpoints; returns removals."""
        removed = []
        for info in self.checkpoints()[: -self.keep or None]:
            info.path.unlink(missing_ok=True)
            removed.append(info.path)
        return removed

    # -- discovery / validation -------------------------------------------

    def checkpoints(self) -> list[CheckpointInfo]:
        """All on-disk checkpoints, oldest first (no validation)."""
        found = []
        for path in self.directory.iterdir():
            match = _NAME.match(path.name)
            if match:
                found.append(
                    CheckpointInfo(
                        path=path,
                        batch=int(match.group("batch")),
                        crc=int(match.group("crc"), 16),
                    )
                )
        return sorted(found, key=lambda c: (c.batch, c.path.name))

    def verify(self, info: CheckpointInfo) -> None:
        """Raise :class:`CheckpointCorruptError` unless ``info`` checks out."""
        try:
            actual = file_crc(info.path)
        except OSError as exc:
            raise CheckpointCorruptError(
                f"{info.path}: unreadable checkpoint: {exc}"
            ) from exc
        if actual != info.crc:
            raise CheckpointCorruptError(
                f"{info.path}: CRC mismatch — name declares {info.crc:08x}, "
                f"file bytes hash to {actual:08x}"
            )

    def latest_valid(self) -> CheckpointInfo | None:
        """Newest checkpoint that passes its CRC, or None.

        Corrupt/truncated files are skipped (not deleted — they are
        evidence for the operator) and the scan continues to older
        checkpoints.
        """
        for info in reversed(self.checkpoints()):
            try:
                self.verify(info)
            except CheckpointCorruptError:
                continue
            return info
        return None

    # -- reading -----------------------------------------------------------

    def load(self, info: CheckpointInfo):
        """Restore (model, extra-state dict) from a verified checkpoint."""
        self.verify(info)
        try:
            model = load_model(info.path)
            extra = read_metadata(info.path).get("extra", {})
        except Exception as exc:  # a CRC-valid file that still won't decode
            raise CheckpointCorruptError(
                f"{info.path}: checkpoint failed to decode: {exc}"
            ) from exc
        registry = _metrics.active()
        if registry is not None:
            registry.counter("reghd_checkpoint_restores_total").inc()
            registry.record_event(
                "checkpoint_restore",
                batch=info.batch,
                checkpoint_id=info.path.stem,
            )
        return model, extra

    def load_latest(self):
        """Restore from the newest valid checkpoint.

        Returns ``(model, extra, info)``; raises :class:`RecoveryError`
        when no valid checkpoint exists.
        """
        info = self.latest_valid()
        if info is None:
            raise RecoveryError(
                f"no valid checkpoint found in {self.directory}"
            )
        model, extra = self.load(info)
        return model, extra, info
