"""Write-ahead log: durable, CRC-guarded, replayable operation records.

The engine logs logical operations (PUT with its after-image, DELETE with
only the key) plus transaction control records. Recovery is redo-only
(see :mod:`repro.storage.recovery`), so no record carries a before-image.
The LSN of a record is its byte offset in the log file, so LSNs are
totally ordered and "flush up to LSN" is a plain file flush. A torn final
record (partial write at crash) is detected by the length/CRC envelope and
ignored on replay, exactly like the tail-scan in ARIES-style recovery.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

from repro.errors import WalError

_ENVELOPE = struct.Struct("<II")  # payload length, crc32(payload)
_FIXED = struct.Struct("<BQ")  # record type, txn id
_LEN = struct.Struct("<I")


class RecordType(IntEnum):
    """Kinds of log record."""

    BEGIN = 1
    PUT = 2
    DELETE = 3
    COMMIT = 4
    ABORT = 5
    CHECKPOINT = 6


@dataclass(frozen=True)
class LogRecord:
    """One logical log record.

    ``after`` is the value image redo installs. Control records and
    DELETEs carry an empty image; control records an empty key too.
    """

    type: RecordType
    txn_id: int
    key: bytes = b""
    after: bytes = b""

    def encode(self) -> bytes:
        parts = [
            _FIXED.pack(int(self.type), self.txn_id),
            _LEN.pack(len(self.key)),
            self.key,
            _LEN.pack(len(self.after)),
            self.after,
        ]
        return b"".join(parts)

    @classmethod
    def decode(cls, payload: bytes) -> "LogRecord":
        rtype, txn_id = _FIXED.unpack_from(payload, 0)
        pos = _FIXED.size
        fields = []
        # A record in the older layout holds three images (key, before,
        # after): read on to the last one.
        while pos < len(payload):
            (length,) = _LEN.unpack_from(payload, pos)
            pos += _LEN.size
            fields.append(payload[pos : pos + length])
            pos += length
        key, after = fields[0], fields[-1]
        return cls(RecordType(rtype), txn_id, key, after)


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

    def append(self, record: LogRecord) -> int:
        """Append ``record``; returns its LSN. Not yet durable until flush."""
        payload = record.encode()
        lsn = self._end
        self._file.write(_ENVELOPE.pack(len(payload), zlib.crc32(payload)))
        self._file.write(payload)
        self._end += _ENVELOPE.size + len(payload)
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

    @property
    def flushed_lsn(self) -> int:
        return self._flushed

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

    def records(self, from_lsn: int = 0) -> Iterator[tuple[int, LogRecord]]:
        """Yield ``(lsn, record)`` pairs starting at ``from_lsn``.

        Stops silently at a torn or corrupt tail (the crash case); raises
        :class:`WalError` for corruption *before* the tail.
        """
        self._file.flush()
        with open(self.path, "rb") as reader:
            reader.seek(from_lsn)
            pos = from_lsn
            while True:
                envelope = reader.read(_ENVELOPE.size)
                if len(envelope) < _ENVELOPE.size:
                    return  # clean end or torn envelope
                length, crc = _ENVELOPE.unpack(envelope)
                payload = reader.read(length)
                if len(payload) < length:
                    return  # torn payload at the tail
                if zlib.crc32(payload) != crc:
                    remaining = reader.read(1)
                    if remaining:
                        raise WalError(f"CRC mismatch mid-log at lsn {pos}")
                    return  # corrupt tail record: treat as torn
                yield pos, LogRecord.decode(payload)
                pos += _ENVELOPE.size + length
