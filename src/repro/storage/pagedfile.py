"""A file of fixed-size pages with a small metadata header page.

Page 0 holds the container magic and the allocated-page count; data pages
are numbered from 1. The paged file knows nothing about what pages contain —
the engine layers slotted pages and indexes on top.
"""

from __future__ import annotations

import os
import struct

from repro.errors import StorageError
from repro.storage.pages import PAGE_SIZE

_MAGIC = b"REPRONSF"
_META = struct.Struct("<8sI")  # magic, page_count


class PagedFile:
    """Random-access page container backed by one operating-system file."""

    def __init__(self, path: str) -> None:
        self.path = path
        exists = os.path.exists(path)
        self._file = open(path, "r+b" if exists else "w+b")
        if exists and os.path.getsize(path) >= PAGE_SIZE:
            header = self._read_raw(0)
            magic, count = _META.unpack_from(header, 0)
            if magic != _MAGIC:
                self._file.close()
                raise StorageError(f"{path} is not a repro page file")
            self._page_count = count
        else:
            self._page_count = 0
            self._write_meta()
        # Random-page-write counter: the input to modeled-disk cost
        # comparisons (a page write is a seek on 1999 hardware; the file
        # here may live on tmpfs where seeks are invisible).
        self.page_writes = 0
        self.syncs = 0

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "PagedFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- page operations --------------------------------------------------

    @property
    def page_count(self) -> int:
        """Number of allocated data pages (page ids run 1..page_count)."""
        return self._page_count

    def allocate(self) -> int:
        """Extend the file by one zeroed page and return its page id."""
        self._page_count += 1
        page_id = self._page_count
        self._write_raw(page_id, bytes(PAGE_SIZE))
        self._write_meta()
        return page_id

    def read(self, page_id: int) -> bytearray:
        """Read data page ``page_id`` into a fresh bytearray."""
        self._check(page_id)
        return bytearray(self._read_raw(page_id))

    def write(self, page_id: int, data: bytes | bytearray) -> None:
        """Write ``data`` (exactly one page) to data page ``page_id``."""
        self._check(page_id)
        if len(data) != PAGE_SIZE:
            raise StorageError(f"page write must be {PAGE_SIZE} bytes")
        self.page_writes += 1
        self._write_raw(page_id, data)

    def sync(self) -> None:
        """Flush OS buffers so pages survive a process crash."""
        self.syncs += 1
        self._file.flush()
        os.fsync(self._file.fileno())

    # -- internals ----------------------------------------------------------

    def _check(self, page_id: int) -> None:
        if self._file.closed:
            raise StorageError("paged file is closed")
        if not 1 <= page_id <= self._page_count:
            raise StorageError(
                f"page id {page_id} out of range 1..{self._page_count}"
            )

    def _read_raw(self, page_id: int) -> bytes:
        self._file.seek(page_id * PAGE_SIZE)
        data = self._file.read(PAGE_SIZE)
        if len(data) != PAGE_SIZE:
            raise StorageError(f"short read on page {page_id}")
        return data

    def _write_raw(self, page_id: int, data: bytes | bytearray) -> None:
        self._file.seek(page_id * PAGE_SIZE)
        self._file.write(data)

    def _write_meta(self) -> None:
        header = bytearray(PAGE_SIZE)
        _META.pack_into(header, 0, _MAGIC, self._page_count)
        self._write_raw(0, header)
