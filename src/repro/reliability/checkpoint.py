"""Atomic, checksummed, rotating model checkpoints.

Checkpoint protocol (documented in README "Checkpoint format").  A
checkpoint directory holds three kinds of file, and only
:class:`CheckpointManager` knows how they fit together:

* **checkpoints**, ``ckpt-<batch:08d>-<crc32:08x>.npz``, one per save:
  the model's learned arrays and metadata, the caller's per-save state
  (JSON ``extra`` plus named ``arrays``), and references to the two files
  below.  The name embeds the CRC32 of the bytes written, so truncation
  and bit rot are detected without a sidecar that could itself go
  missing;
* **one encoder file**, ``encoder-<crc32:08x>.npz``: the model's
  ``encoder_*`` arrays, which never change (registered encoders store
  them read-only).  The first save writes it and every later save
  references it; a save that finds it gone writes it again.  A load
  checks it against the CRC in its name and refuses a missing or
  mismatched file — recovery never builds other bases;
* **the history journal**, ``journal-<batch:08d>.jsonl``: append-only,
  one JSON record per line.  A save appends only the records new since
  the previous save and records the byte length its checkpoint covers
  and that prefix's CRC32, kept as a running CRC, so a save costs time
  in its new records only.  A load verifies the prefix and returns its
  newest ``retain`` records; the next save first truncates the journal to
  that prefix, so records of an abandoned branch never enter a later
  checkpoint.  With a bounded ``retain``, the first save past
  ``_JOURNAL_SPAN * retain`` lines starts a new journal holding only the
  retained records.

Checkpoints, encoder files and new journals are **atomic**: written to a
temporary name in the directory and published with :func:`os.replace`,
and a journal append lands before the checkpoint that covers it is
published.  **Rotation** keeps the newest ``keep`` checkpoints and
deletes every encoder file and journal no kept checkpoint references.
A checkpoint **validates end to end** — its own CRC, its encoder file's
and its journal prefix's — and :meth:`CheckpointManager.load_latest`
walks newest-to-oldest past any checkpoint that fails, so one bad file
costs one checkpoint interval, not the run.

Checkpoints written before the encoder file and the journal existed are
self-contained :func:`~repro.serialization.save_model` files carrying
their state inline, and still load.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import zlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.estimator import ENCODER_PREFIX
from repro.exceptions import (
    CheckpointCorruptError,
    ConfigurationError,
    RecoveryError,
)
from repro.reliability.retry import retry
from repro.serialization import (
    model_from_state,
    model_state,
    npz_bytes,
    read_metadata,
    read_npz,
)
from repro.telemetry import metrics as _metrics

_NAME = re.compile(r"^ckpt-(?P<batch>\d{8})-(?P<crc>[0-9a-f]{8})\.npz$")
_ENCODER = re.compile(r"^encoder-(?P<crc>[0-9a-f]{8})\.npz$")
_JOURNAL = re.compile(r"^journal-\d{8}\.jsonl$")

#: a bounded journal starts afresh past this many times ``retain`` lines
_JOURNAL_SPAN = 4
#: npz-member prefix of the caller's per-save arrays
_ARRAY_PREFIX = "extra_"
#: keys :meth:`CheckpointManager.load` adds to the returned ``extra``
_RESERVED = frozenset({"arrays", "records"})


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint: its path, batch index and declared CRC."""

    path: pathlib.Path
    batch: int
    crc: int


@dataclass
class _Journal:
    """A journal file up to the end of the newest checkpoint's prefix."""

    name: str
    size: int  # bytes covered
    crc: int  # CRC32 of those bytes
    lines: int  # records in those bytes
    #: the newest ``retain`` encoded lines (every line when ``retain`` is
    #: None), from which a new journal starts
    tail: deque


@retry(attempts=3, base_delay=0.02, retry_on=(OSError,))
def _read_bytes(path: pathlib.Path) -> bytes:
    return path.read_bytes()


def file_crc(path: pathlib.Path) -> int:
    """CRC32 of a file's bytes (retried on transient I/O errors)."""
    return zlib.crc32(_read_bytes(path)) & 0xFFFFFFFF


def _references(block: dict) -> frozenset[str]:
    """Names of the encoder file and journal a checkpoint references."""
    names = set()
    if "encoder" in block:
        names.add(block["encoder"])
    if "journal" in block:
        names.add(block["journal"]["name"])
    return frozenset(names)


def _same_arrays(held: dict, arrays: dict) -> bool:
    return held.keys() == arrays.keys() and all(
        held[name] is value or np.array_equal(held[name], value)
        for name, value in arrays.items()
    )


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
        #: ``(name, arrays)`` of the encoder file saves reference
        self._encoder: tuple[str, dict] | None = None
        #: the journal the next save appends to
        self._journal: _Journal | None = None
        #: checkpoint file name -> the files it references
        self._refs: dict[str, frozenset[str]] = {}

    # -- writing -----------------------------------------------------------

    def save(
        self,
        model,
        *,
        batch: int,
        extra: dict | None = None,
        arrays: dict[str, np.ndarray] | None = None,
        records: list | None = None,
        retain: int | None = None,
    ) -> CheckpointInfo:
        """Checkpoint ``model`` and the caller's state for ``batch``.

        ``extra`` (JSON-serialisable) and ``arrays`` (named arrays) come
        back from :meth:`load`.  ``records`` are the JSON-serialisable
        records new since the previous save; they are appended to the
        directory's journal, and a load returns the newest ``retain`` of
        them (all when None).  Without ``records`` the checkpoint
        references no journal.

        Publishes the checkpoint atomically, prunes beyond ``keep`` and
        returns the checkpoint.
        """
        if batch < 0:
            raise RecoveryError(f"batch must be >= 0, got {batch}")
        if extra is not None and not _RESERVED.isdisjoint(extra):
            raise ConfigurationError(
                f"extra keys {sorted(_RESERVED & set(extra))} are reserved "
                "for the arrays and records a load returns"
            )
        meta, state = model_state(model)
        learned, encoder = {}, {}
        for name, value in state.items():
            target = encoder if name.startswith(ENCODER_PREFIX) else learned
            target[name] = value
        block: dict = {}
        if encoder:
            block["encoder"] = self._encoder_file(encoder)
        journal = None
        if records is not None:
            journal, pending = self._append(records, retain, batch)
            block["journal"] = {
                "name": journal.name,
                "bytes": journal.size,
                "crc": journal.crc,
                "retain": retain,
            }
        if arrays:
            block["arrays"] = sorted(arrays)
            for name, value in arrays.items():
                learned[_ARRAY_PREFIX + name] = np.asarray(value)
        meta["kind"] = "checkpoint"
        meta["checkpoint"] = block
        if extra is not None:
            meta["extra"] = extra
        # Serialise once, in memory: the CRC comes from the bytes being
        # written, so the file is never read back to name it.
        payload = npz_bytes(meta, learned)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        final = self._publish(f"ckpt-{batch:08d}-{crc:08x}.npz", payload)
        if journal is not None:
            # Published: the journal now continues after these records.
            journal.tail.extend(pending)
            self._journal = journal
        self._refs[final.name] = _references(block)
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

    def _publish(self, name: str, payload: bytes) -> pathlib.Path:
        tmp = self.directory / f".{name}.tmp"
        tmp.write_bytes(payload)
        final = self.directory / name
        os.replace(tmp, final)
        return final

    def _encoder_file(self, arrays: dict) -> str:
        """The encoder file holding ``arrays``, written when there is none."""
        if self._encoder is not None:
            name, held = self._encoder
            if _same_arrays(held, arrays) and (self.directory / name).exists():
                # Hold the caller's own arrays: the next check is identity.
                self._encoder = (name, arrays)
                return name
        payload = npz_bytes({"kind": "encoder"}, arrays)
        name = f"encoder-{zlib.crc32(payload) & 0xFFFFFFFF:08x}.npz"
        self._publish(name, payload)
        self._encoder = (name, arrays)
        return name

    def _append(
        self, records: list, retain: int | None, batch: int
    ) -> tuple[_Journal, list[bytes]]:
        """Write ``records`` to the journal.

        Returns the journal's state once the checkpoint covering them is
        published, and the lines its tail takes then.  Until then the
        manager keeps the previous state, so a save that fails after
        this leaves bytes the next save truncates away.
        """
        lines = [
            json.dumps(record, separators=(",", ":")).encode() + b"\n"
            for record in records
        ]
        name = f"journal-{batch:08d}.jsonl"
        old = self._journal
        if (
            old is not None
            and old.tail.maxlen == retain
            and self._resume(old)
            and not (
                retain is not None
                and old.lines + len(lines) > _JOURNAL_SPAN * retain
                and old.name != name
            )
        ):
            chunk = b"".join(lines)
            with open(self.directory / old.name, "ab") as handle:
                handle.write(chunk)
            journal = _Journal(
                old.name,
                old.size + len(chunk),
                zlib.crc32(chunk, old.crc),
                old.lines + len(lines),
                old.tail,
            )
            return journal, lines
        # A new journal holding only the retained records.
        tail = deque(old.tail if old else (), maxlen=retain)
        tail.extend(lines)
        body = b"".join(tail)
        self._publish(name, body)
        journal = _Journal(name, len(body), zlib.crc32(body), len(tail), tail)
        return journal, []

    def _resume(self, journal: _Journal) -> bool:
        """Whether ``journal``'s file still holds the bytes the newest
        checkpoint covers; anything past them (an abandoned branch's
        records) is truncated away."""
        path = self.directory / journal.name
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return False
        if size > journal.size:
            os.truncate(path, journal.size)
        return size >= journal.size

    def prune(self) -> list[pathlib.Path]:
        """Delete all but the newest ``keep`` checkpoints, then the encoder
        files and journals no kept checkpoint references; returns the
        removed paths."""
        checkpoints, side_files = self._scan()
        removed = []
        for info in checkpoints[: -self.keep]:
            info.path.unlink(missing_ok=True)
            self._refs.pop(info.path.name, None)
            removed.append(info.path)
        # The files the next save writes to stay whatever is kept.
        referenced = set()
        if self._encoder is not None:
            referenced.add(self._encoder[0])
        if self._journal is not None:
            referenced.add(self._journal.name)
        for info in checkpoints[-self.keep :]:
            referenced |= self._referenced_by(info)
        for path in side_files:
            if path.name not in referenced:
                path.unlink(missing_ok=True)
                removed.append(path)
        return removed

    def _referenced_by(self, info: CheckpointInfo) -> frozenset[str]:
        """The files ``info`` references, read from disk once per file."""
        refs = self._refs.get(info.path.name)
        if refs is None:
            try:
                block = read_metadata(info.path).get("checkpoint", {})
                refs = _references(block)
            except (ConfigurationError, KeyError, TypeError):
                refs = frozenset()  # unreadable: it can keep nothing alive
            self._refs[info.path.name] = refs
        return refs

    # -- discovery / validation -------------------------------------------

    def _scan(self) -> tuple[list[CheckpointInfo], list[pathlib.Path]]:
        """Checkpoints (oldest first) and encoder/journal files on disk."""
        found, side_files = [], []
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
            elif _ENCODER.match(path.name) or _JOURNAL.match(path.name):
                side_files.append(path)
        found.sort(key=lambda c: (c.batch, c.path.name))
        return found, side_files

    def checkpoints(self) -> list[CheckpointInfo]:
        """All on-disk checkpoints, oldest first (no validation)."""
        return self._scan()[0]

    def verify(self, info: CheckpointInfo) -> None:
        """Raise :class:`CheckpointCorruptError` unless ``info`` checks
        out end to end: its CRC, its encoder file's and its journal
        prefix's."""
        self._read(info)

    def latest_valid(self) -> CheckpointInfo | None:
        """Newest checkpoint that passes :meth:`verify`, or None.

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

    def _read(self, info: CheckpointInfo):
        """Verify and decode ``info``: ``(meta, arrays, encoder, journal)``."""
        try:
            payload = _read_bytes(info.path)
        except OSError as exc:
            raise CheckpointCorruptError(
                f"{info.path}: unreadable checkpoint: {exc}"
            ) from exc
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != info.crc:
            raise CheckpointCorruptError(
                f"{info.path}: CRC mismatch — name declares {info.crc:08x}, "
                f"file bytes hash to {actual:08x}"
            )
        try:
            meta, arrays = read_npz(payload)
            block = meta.get("checkpoint", {})
            encoder = (
                self._read_encoder(block["encoder"])
                if "encoder" in block
                else None
            )
            journal = (
                self._read_journal(block["journal"])
                if "journal" in block
                else None
            )
        except (
            ConfigurationError,
            CheckpointCorruptError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            raise CheckpointCorruptError(f"{info.path}: {exc}") from exc
        return meta, arrays, encoder, journal

    def _read_encoder(self, name: str) -> dict:
        match = _ENCODER.match(name)
        if match is None:
            raise CheckpointCorruptError(f"bad encoder file name {name!r}")
        try:
            data = _read_bytes(self.directory / name)
        except OSError as exc:
            raise CheckpointCorruptError(
                f"its encoder file {name} is unreadable: {exc}"
            ) from exc
        if zlib.crc32(data) & 0xFFFFFFFF != int(match.group("crc"), 16):
            raise CheckpointCorruptError(
                f"its encoder file {name} does not match the CRC in its name"
            )
        return read_npz(data)[1]

    def _read_journal(self, ref: dict) -> _Journal:
        name, size = ref["name"], int(ref["bytes"])
        if _JOURNAL.match(name) is None:
            raise CheckpointCorruptError(f"bad journal name {name!r}")
        try:
            prefix = _read_bytes(self.directory / name)[:size]
        except OSError as exc:
            raise CheckpointCorruptError(
                f"its journal {name} is unreadable: {exc}"
            ) from exc
        crc = zlib.crc32(prefix)
        if len(prefix) != size or crc != int(ref["crc"]):
            raise CheckpointCorruptError(
                f"its journal {name} does not hold the {size} bytes it covers"
            )
        lines = prefix.splitlines(keepends=True)
        return _Journal(
            name, size, crc, len(lines), deque(lines, maxlen=ref["retain"])
        )

    def load(self, info: CheckpointInfo):
        """Restore ``(model, extra)`` from a checkpoint verified end to end.

        ``extra`` is the JSON state the save was given, plus ``"arrays"``
        (its named arrays) and ``"records"`` (the newest ``retain``
        journal records, oldest first) when the save stored them.  The
        loaded checkpoint is also where the journal continues: the next
        save appends after its records.
        """
        meta, arrays, encoder, journal = self._read(info)
        block = meta.get("checkpoint", {})
        try:
            saved = {
                name: arrays.pop(_ARRAY_PREFIX + name)
                for name in block.get("arrays", ())
            }
            model = model_from_state(meta, {**arrays, **(encoder or {})})
            records = (
                None
                if journal is None
                else [json.loads(line) for line in journal.tail]
            )
        except Exception as exc:  # a CRC-valid file that still won't decode
            raise CheckpointCorruptError(
                f"{info.path}: checkpoint failed to decode: {exc}"
            ) from exc
        extra = dict(meta.get("extra", {}))
        if saved:
            extra["arrays"] = saved
        if records is not None:
            extra["records"] = records
        if encoder is not None and (
            self._encoder is None or self._encoder[0] != block["encoder"]
        ):
            self._encoder = (block["encoder"], encoder)
        self._journal = journal
        self._refs[info.path.name] = _references(block)
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
        """Restore from the newest checkpoint that loads.

        Returns ``(model, extra, info)``; checkpoints that fail any check
        are skipped.  Raises :class:`RecoveryError` when none loads.
        """
        for info in reversed(self.checkpoints()):
            try:
                model, extra = self.load(info)
            except CheckpointCorruptError:
                continue
            return model, extra, info
        raise RecoveryError(f"no valid checkpoint found in {self.directory}")
