"""Write-ahead log: durable, CRC-guarded, replayable commit records.

A committed transaction is one log record holding its whole write-set in
write order: the key and after-image of each put, the key alone of each
delete. Nothing else is logged, so an open transaction has nothing in the
log, and recovery (every open of a :mod:`repro.storage.engine` store)
replays every whole record it finds. The LSN of a record is its byte offset in the log file, so LSNs
are totally ordered and "flush up to LSN" is a plain file flush. A torn
final record (partial write at crash) is detected by the length/CRC
envelope and ignored on replay.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator

from repro.errors import WalError

_ENVELOPE = struct.Struct("<II")  # payload length, crc32(payload)
_WRITE = struct.Struct("<II")  # key length, value length (or _DELETE)
_DELETE = 0xFFFFFFFF
# First byte of a commit record. A record of the older BEGIN/PUT/.../COMMIT
# layout starts with its type, 1 to 6.
_COMMIT = b"C"


def frame(payload: bytes) -> bytes:
    """``payload`` in the length + CRC32 envelope that makes a torn or
    corrupt record detectable (log records and ``.chk`` deltas alike)."""
    return _ENVELOPE.pack(len(payload), zlib.crc32(payload)) + payload


def unframe(data: bytes, pos: int = 0) -> Iterator[tuple[bytes, int]]:
    """Yield ``(payload, end)`` for each whole :func:`frame` in ``data``
    from offset ``pos`` on, ``end`` being the offset one past it.

    Stops silently at a torn or corrupt tail (the crash case); raises
    :class:`WalError` for corruption *before* the tail.
    """
    while pos + _ENVELOPE.size <= len(data):
        length, crc = _ENVELOPE.unpack_from(data, pos)
        start = pos + _ENVELOPE.size
        end = start + length
        if end > len(data):
            return  # torn payload at the tail
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            if end < len(data):
                raise WalError(f"CRC mismatch before the tail, at offset {pos}")
            return  # corrupt tail record: treat as torn
        yield payload, end
        pos = end


def encode_commit(writes: dict[bytes, bytes | None]) -> bytes:
    """The log payload of a write-set (``None`` marks a delete)."""
    parts = [_COMMIT]
    for key, value in writes.items():
        if value is None:
            parts += (_WRITE.pack(len(key), _DELETE), key)
        else:
            parts += (_WRITE.pack(len(key), len(value)), key, value)
    return b"".join(parts)


def decode_commit(payload: bytes) -> Iterator[tuple[bytes, bytes | None]]:
    """Yield the ``(key, value)`` writes of an :func:`encode_commit` payload.

    Raises :class:`WalError` for a record in the older layout.
    """
    if payload[:1] != _COMMIT:
        raise WalError(
            "the log holds records of an older layout: this store crashed "
            "under the previous build; open it once with that build to "
            "recover it, then reopen"
        )
    pos = 1
    while pos < len(payload):
        key_len, value_len = _WRITE.unpack_from(payload, pos)
        pos += _WRITE.size
        key = payload[pos : pos + key_len]
        pos += key_len
        if value_len == _DELETE:
            yield key, None
        else:
            yield key, payload[pos : pos + value_len]
            pos += value_len


class WriteAheadLog:
    """Appendable, replayable log file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = open(path, "a+b")
        self._file.seek(0, os.SEEK_END)
        self._end = self._file.tell()
        self._flushed = self._end
        self.appends = 0
        self.flushes = 0

    # -- writing --------------------------------------------------------

    def append(self, payload: bytes) -> int:
        """Append ``payload`` as one record; returns its LSN. Not yet
        durable until flush."""
        lsn = self._end
        record = frame(payload)
        self._file.write(record)
        self._end += len(record)
        self.appends += 1
        return lsn

    def flush(self) -> None:
        """Force everything appended so far to stable storage."""
        if self._flushed == self._end:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._flushed = self._end
        self.flushes += 1

    @property
    def end_lsn(self) -> int:
        """LSN one past the last appended record."""
        return self._end

    def truncate(self) -> None:
        """Discard all records (used after a sharp checkpoint)."""
        self._file.truncate(0)
        self._file.seek(0)
        self._end = 0
        self._flushed = 0

    def close(self) -> None:
        if not self._file.closed:
            self.flush()
            self._file.close()

    def abandon(self) -> None:
        """Crash simulation: discard appended-but-unflushed records.

        A real crash loses whatever was not fsynced; we model that by
        truncating the file back to the flushed LSN before closing.
        """
        if self._file.closed:
            return
        self._file.flush()  # move Python's buffer to the OS file first
        self._file.truncate(self._flushed)
        self._file.close()

    # -- reading --------------------------------------------------------

    def records(self, from_lsn: int = 0) -> Iterator[bytes]:
        """Yield the payload of each record starting at ``from_lsn``.

        Stops silently at a torn or corrupt tail (the crash case); raises
        :class:`WalError` for corruption *before* the tail.
        """
        self._file.flush()
        with open(self.path, "rb") as reader:
            data = reader.read()
        for payload, _ in unframe(data, from_lsn):
            yield payload
